//===- support/AtomicFile.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

using namespace cmcc;

Expected<std::string> cmcc::createTempBeside(const std::string &Path) {
  std::string Tmp = Path + ".tmp.XXXXXX";
  int Fd = ::mkstemp(Tmp.data());
  if (Fd < 0)
    return makeError("cannot create a temporary beside '" + Path +
                     "': " + std::strerror(errno));
  // mkstemp creates 0600; stored files stay readable like any other.
  ::fchmod(Fd, 0644);
  ::close(Fd);
  return Tmp;
}

Error cmcc::installFile(const std::string &Tmp, const std::string &Path) {
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    const int Saved = errno;
    ::unlink(Tmp.c_str());
    return makeError("cannot install '" + Path +
                     "': " + std::strerror(Saved));
  }
  return Error::success();
}

Error cmcc::writeFileAtomic(const std::string &Path, const std::string &Text) {
  Expected<std::string> Tmp = createTempBeside(Path);
  if (!Tmp)
    return Tmp.error();
  std::FILE *F = std::fopen(Tmp->c_str(), "wb");
  bool Ok = F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  if (F && std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    ::unlink(Tmp->c_str());
    return makeError("short write to '" + *Tmp + "'");
  }
  return installFile(*Tmp, Path);
}
