//===- perfbench/Harness.h - Timing, spans and statistics -------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own measurement kit: a steady-clock stopwatch, in-memory
/// layer spans (name, start, end, parent, op id) recorded around the calls
/// into the library's public functions, order statistics, and a 64-bit
/// FNV-1a digest of exported bytes.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_PERFBENCH_HARNESS_H
#define DRA_PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// One recorded span. Times are microseconds since the recorder started.
struct SpanRec {
  std::string Name;
  double StartUs = 0.0;
  double EndUs = 0.0;
  int32_t Parent = -1;   ///< Index of the enclosing span, -1 for a root.
  uint32_t Op = 0;       ///< Spans of one op share this id (0 = set-up).
  uint64_t Work = 0;     ///< Work done inside: iterations, requests, bytes.
};

/// In-memory span recorder. Single-threaded: spans nest strictly.
class Spans {
public:
  Spans() : T0(Clock::now()) {}

  int32_t begin(const char *Name, uint64_t Work) {
    SpanRec R;
    R.Name = Name;
    R.Parent = Open;
    R.Op = CurOp;
    R.Work = Work;
    R.StartUs = nowUs();
    Recs.push_back(std::move(R));
    Open = int32_t(Recs.size() - 1);
    return Open;
  }
  void end(int32_t Id) {
    Recs[size_t(Id)].EndUs = nowUs();
    Open = Recs[size_t(Id)].Parent;
  }
  /// Spans begun from now on belong to op \p Op.
  void setOp(uint32_t Op) { CurOp = Op; }
  void setWork(int32_t Id, uint64_t Work) { Recs[size_t(Id)].Work = Work; }

  const std::vector<SpanRec> &records() const { return Recs; }

  /// Self time of span \p I in microseconds: its duration minus the part
  /// its direct children cover (children nest strictly inside it).
  std::vector<double> selfTimesUs() const {
    std::vector<double> Self(Recs.size());
    for (size_t I = 0; I != Recs.size(); ++I)
      Self[I] = Recs[I].EndUs - Recs[I].StartUs;
    for (const SpanRec &R : Recs)
      if (R.Parent >= 0)
        Self[size_t(R.Parent)] -= R.EndUs - R.StartUs;
    return Self;
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  Clock::time_point T0;
  std::vector<SpanRec> Recs;
  int32_t Open = -1;
  uint32_t CurOp = 0;
};

/// RAII span; a no-op when the recorder is null (the untraced path).
class Span {
public:
  Span(Spans *S, const char *Name, uint64_t Work = 0) : S(S) {
    if (S)
      Id = S->begin(Name, Work);
  }
  ~Span() {
    if (S)
      S->end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void setWork(uint64_t Work) {
    if (S)
      S->setWork(Id, Work);
  }

private:
  Spans *S;
  int32_t Id = -1;
};

/// Nearest-rank quantile of \p V (0 < Q <= 1); V must be non-empty.
inline double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// 64-bit FNV-1a, folded over successive byte strings.
inline uint64_t fnv1a(std::string_view Bytes,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

inline std::string hex64(uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    S[size_t(I)] = Digits[V & 15];
  return S;
}

} // namespace perfbench

#endif // DRA_PERFBENCH_HARNESS_H
