//===- tests/support_test.cpp - support library tests ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostic.h"
#include "support/Error.h"
#include "support/Fnv1a.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"
#include <gtest/gtest.h>

using namespace cmcc;

TEST(ErrorTest, SuccessIsFalsy) {
  Error E;
  EXPECT_FALSE(E);
  EXPECT_FALSE(Error::success());
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error E = makeError("register pressure too high");
  EXPECT_TRUE(E);
  EXPECT_EQ(E.message(), "register pressure too high");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> V(42);
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 42);
  EXPECT_EQ(V.takeValue(), 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> V(makeError("nope"));
  ASSERT_FALSE(V);
  EXPECT_EQ(V.error().message(), "nope");
}

TEST(DiagnosticTest, CountsAndFormats) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({2, 5}, "look out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 1}, "boom");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.str(), "2:5: warning: look out\n3:1: error: boom\n");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(DiagnosticTest, UnknownLocationOmitted) {
  Diagnostic D{DiagnosticSeverity::Note, {}, "hi"};
  EXPECT_EQ(formatDiagnostic(D), "note: hi");
}

TEST(Fnv1aTest, KnownAnswersAndChaining) {
  // The published FNV-1a64 test vectors. Plan fingerprints, njit
  // toolchain identities and frame checksums are all this hash, so its
  // values are part of every on-disk and on-wire name.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));
}

TEST(StringUtilsTest, CaseConversion) {
  EXPECT_EQ(toUpper("cshift"), "CSHIFT");
  EXPECT_EQ(toLower("CSHIFT"), "cshift");
  EXPECT_TRUE(equalsInsensitive("SubRoutine", "SUBROUTINE"));
  EXPECT_FALSE(equalsInsensitive("REAL", "REALS"));
}

TEST(StringUtilsTest, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim(""), "");
  auto Pieces = split("a,b,,c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");
}

TEST(StringUtilsTest, FormatFixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(-1.0, 1), "-1.0");
}

TEST(RandomTest, DeterministicAcrossInstances) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, RangesRespected) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = Rng.nextInRange(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    float F = Rng.nextFloatInRange(0.5f, 2.0f);
    EXPECT_GE(F, 0.5f);
    EXPECT_LT(F, 2.0f);
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "mflops"});
  T.addRow({"cross5", "72.8"});
  T.addRow({"diamond13", "85.9"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("  72.8"), std::string::npos) << Out;
  EXPECT_NE(Out.find("diamond13"), std::string::npos);
}
