//===- perfbench/src/Ceilings.cpp - In-run hardware ceilings --------------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmark-owned reference loops the traced invocation holds layers
/// against: what this host does for the seismic update's arithmetic, for
/// a halo-shaped copy, and for a grid through a local socket, with none
/// of the program's code in the way. Each is the median of many timed
/// repetitions.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include <cstring>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

/// Median seconds of one call of \p Body over batches filling about
/// \p Budget seconds.
template <typename F> double medianSeconds(F &&Body, double Budget) {
  Body(); // Warm the caches.
  std::vector<double> Times;
  const Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < Budget || Times.size() < 5) {
    const Clock::time_point T0 = Clock::now();
    Body();
    Times.push_back(secondsSince(T0));
  }
  return median(Times);
}

/// Single-thread GFlop/s of a row microkernel computing the seismic
/// update's ten terms over an L2-resident 128x128 field.
double kernelCeilingGflops() {
  // The seismic update's ten terms (nine scalar-weighted taps of the
  // radius-2 cross, then the bare UPREV term) over one 128x128 subgrid
  // padded by the border: 69 KiB of field, resident in L2.
  constexpr int N = 128, B = 2, P = N + 2 * B;
  std::vector<float> U(P * P), Prev(N * N), R(N * N);
  for (size_t I = 0; I != U.size(); ++I)
    U[I] = static_cast<float>(I % 97) * 0.01f;
  for (size_t I = 0; I != Prev.size(); ++I)
    Prev[I] = static_cast<float>(I % 89) * 0.01f;
  const float C0 = 0.9f, C1 = 0.293333f, C2 = 0.018333f;
  auto Pass = [&] {
    for (int Row = 0; Row != N; ++Row) {
      const float *X = &U[(Row + B) * P + B];
      const float *Q = &Prev[Row * N];
      float *Out = &R[Row * N];
      for (int C = 0; C != N; ++C)
        Out[C] = C0 * X[C] + C1 * X[C - P] + C1 * X[C + P] + C1 * X[C - 1] +
                 C1 * X[C + 1] - C2 * X[C - 2 * P] - C2 * X[C + 2 * P] -
                 C2 * X[C - 2] - C2 * X[C + 2] - Q[C];
    }
    // Feed the result back so the loop cannot be hoisted away.
    U[B * P + B] = R[N * N / 2];
  };
  const double Seconds = medianSeconds(Pass, 0.25);
  return 18.0 * N * N / Seconds / 1e9;
}

/// memcpy bandwidth, GB/s, copying \p Rows rows of \p RowBytes each
/// between separate buffers (the shape of a halo band or core copy).
double memcpyCeilingGBps(size_t RowBytes, int Rows) {
  // Row-by-row into a buffer with a wider stride, as a padded halo
  // buffer is filled.
  const size_t Stride = RowBytes + 64;
  std::vector<char> From(RowBytes * Rows, 1), To(Stride * Rows);
  auto Copy = [&] {
    for (int Row = 0; Row != Rows; ++Row)
      std::memcpy(&To[Row * Stride], &From[Row * RowBytes], RowBytes);
    From[0] = To[Stride]; // Keep the copy observable.
  };
  const double Seconds = medianSeconds(Copy, 0.2);
  return static_cast<double>(RowBytes) * Rows / Seconds / 1e9;
}

/// One-way AF_UNIX socketpair throughput, GB/s, for messages of
/// \p PayloadBytes.
double socketCeilingGBps(size_t PayloadBytes) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    return 0.0;
  // The reader drains exactly what the writer sends, then echoes one
  // byte so each timed message is a complete one-way transfer.
  const int Messages = 64;
  std::thread Reader([&] {
    std::vector<char> Buf(1 << 16);
    for (int M = 0; M != Messages + 1; ++M) {
      size_t Got = 0;
      while (Got < PayloadBytes) {
        ssize_t N = ::read(Fds[1], Buf.data(),
                           std::min(Buf.size(), PayloadBytes - Got));
        if (N <= 0)
          return;
        Got += static_cast<size_t>(N);
      }
      char Ack = 1;
      if (::write(Fds[1], &Ack, 1) != 1)
        return;
    }
  });
  std::vector<char> Payload(PayloadBytes, 7);
  std::vector<double> Times;
  for (int M = 0; M != Messages + 1; ++M) {
    const Clock::time_point T0 = Clock::now();
    size_t Sent = 0;
    while (Sent < PayloadBytes) {
      ssize_t N = ::write(Fds[0], Payload.data() + Sent, PayloadBytes - Sent);
      if (N <= 0)
        break;
      Sent += static_cast<size_t>(N);
    }
    char Ack;
    if (Sent != PayloadBytes || ::read(Fds[0], &Ack, 1) != 1)
      break;
    if (M) // The first message warms the socket buffers.
      Times.push_back(secondsSince(T0));
  }
  ::close(Fds[0]); // Unblocks the reader if the loop broke early.
  Reader.join();
  ::close(Fds[1]);
  if (Times.empty())
    return 0.0;
  return static_cast<double>(PayloadBytes) / median(Times) / 1e9;
}

} // namespace

Ceilings measureCeilings() {
  Ceilings C;
  C.KernelGflops = kernelCeilingGflops();
  // Rows of a 128x128 subgrid (the seismic and shard workloads'), and a
  // 256x256 grid (the wire workload's).
  C.MemcpyGBps = memcpyCeilingGBps(128 * sizeof(float), 128);
  C.SocketGBps = socketCeilingGBps(256 * 256 * sizeof(float));
  return C;
}

} // namespace perfbench
