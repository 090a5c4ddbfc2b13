//===- tests/TestUtil.h - Helpers shared by the unit tests -------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef DRA_TESTS_TESTUTIL_H
#define DRA_TESTS_TESTUTIL_H

#include <cstdint>
#include <string>

namespace dra {

/// "<Prefix><N>", e.g. indexed("n", 2) == "n2", for generated program,
/// array and nest names. Built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict on `"lit" + std::string&&`.
inline std::string indexed(const char *Prefix, int64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

} // namespace dra

#endif // DRA_TESTS_TESTUTIL_H
