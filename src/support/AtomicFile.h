//===- support/AtomicFile.h - Atomic file replacement ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write discipline of every on-disk store (plan cache, autotuner
/// records, njit artifacts): write a temporary beside the target, then
/// rename it over the target. A reader sees the old file or the new
/// one, never a torn one, and a re-store replaces the file's inode
/// instead of rewriting it in place. Temporaries are named by mkstemp,
/// so two writers — threads or processes — never share one, and a
/// failed write removes its temporary.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_ATOMICFILE_H
#define CMCC_SUPPORT_ATOMICFILE_H

#include "support/Error.h"
#include <string>

namespace cmcc {

/// Creates a uniquely named, empty file `<Path>.tmp.XXXXXX` in \p
/// Path's directory (so the final rename never crosses a filesystem)
/// and returns its name.
Expected<std::string> createTempBeside(const std::string &Path);

/// Renames \p Tmp over \p Path; removes \p Tmp if that fails.
Error installFile(const std::string &Tmp, const std::string &Path);

/// Writes \p Text to a fresh temporary beside \p Path and installs it.
Error writeFileAtomic(const std::string &Path, const std::string &Text);

} // namespace cmcc

#endif // CMCC_SUPPORT_ATOMICFILE_H
