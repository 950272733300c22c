#include "host_speed.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

/// The reference kernel's time on a quiet 4-vCPU x86 VM (Xeon, GCC 12,
/// -O2). Only its ratio to the measured probes matters; it is chosen so
/// that normalised times read close to wall times on a quiet host.
constexpr double kReferenceProbeNs = 1.65e6;

/// Round trips to the helper thread per probe with hand-offs, and one
/// round trip's time on the same quiet host.
constexpr int kRelayTrips = 16;
constexpr double kReferenceTripNs = 25e3;

/// The explanation engine slows down more than the compute-only probe:
/// over 40 sweep runs on hosts slowed by up to 1.45x, the probe-normalised
/// throughput still fell as probe_slowdown^-0.27 (uiCA -0.28, Ithemal
/// -0.26). The slowdown the compute-only probe reports is therefore its
/// time ratio to this power. With hand-offs the served latencies showed
/// no such trend, and the ratio is used as it is.
constexpr double kComputeSensitivity = 1.25;

/// Probes around a point in time whose median gives the slowdown there.
constexpr std::size_t kWindow = 9;

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct XorShift {
  std::uint64_t x = 0x9E37'79B9'7F4A'7C15ULL;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

/// The three kinds of work an explanation does, in fixed amounts: text
/// keys into a hash map (the broker's memo), a small dependency graph
/// (Γ), and an LSTM-sized matrix-vector loop (the models). Returns a
/// checksum so that nothing is optimised away.
std::uint64_t reference_kernel() {
  XorShift next;
  std::uint64_t sum = 0;

  std::unordered_map<std::string, int> memo;
  for (int i = 0; i < 1500; ++i) {
    std::string key = "op" + std::to_string(next() % 48) + " r" +
                      std::to_string(next() % 16) + ", [r" +
                      std::to_string(next() % 16) + " + " +
                      std::to_string(8 * (next() % 8)) + "]";
    sum += static_cast<std::uint64_t>(++memo[key]);
  }

  for (int g = 0; g < 600; ++g) {
    std::vector<std::uint32_t> reach(16);
    for (int a = 0; a < 16; ++a) {
      for (int b = a + 1; b < 16; ++b) {
        if (next() % 4 == 0) reach[a] |= 1u << b;
      }
    }
    for (int a = 15; a >= 0; --a) {
      std::uint32_t r = reach[a];
      for (int b = a + 1; b < 16; ++b) {
        if ((r >> b) & 1u) r |= reach[b];
      }
      reach[a] = r;
    }
    for (const std::uint32_t r : reach) {
      sum += static_cast<std::uint64_t>(std::popcount(r));
    }
  }

  constexpr int kDim = 64;
  std::vector<float> weights(4 * kDim * kDim);
  for (float& w : weights) {
    w = static_cast<float>(next() % 2001) / 1000.0f - 1.0f;
  }
  std::array<float, kDim> h{};
  std::array<float, 4 * kDim> gates{};
  h[0] = 1.0f;
  for (int step = 0; step < 24; ++step) {
    for (int row = 0; row < 4 * kDim; ++row) {
      float acc = 0.0f;
      for (int col = 0; col < kDim; ++col) {
        acc += weights[row * kDim + col] * h[col];
      }
      gates[row] = acc;
    }
    for (int k = 0; k < kDim; ++k) {
      h[k] = std::tanh(gates[k]) * std::tanh(gates[3 * kDim + k] * 0.5f);
    }
  }
  for (const float v : h) sum += std::bit_cast<std::uint32_t>(v);
  return sum;
}

volatile std::uint64_t g_sink = 0;

}  // namespace

/// A helper thread that answers each round trip: the caller bumps `sent_`
/// and waits until the helper has copied it to `echoed_`.
class Relay {
 public:
  Relay() : thread_([this] { serve(); }) {}
  ~Relay() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    to_helper_.notify_one();
    thread_.join();
  }
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  void round_trip() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++sent_;
    to_helper_.notify_one();
    to_caller_.wait(lock, [this] { return echoed_ == sent_; });
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      to_helper_.wait(lock, [this] { return stop_ || echoed_ != sent_; });
      if (stop_) return;
      echoed_ = sent_;
      to_caller_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable to_helper_;
  std::condition_variable to_caller_;
  std::uint64_t sent_ = 0;    // guarded by mutex_
  std::uint64_t echoed_ = 0;  // guarded by mutex_
  bool stop_ = false;         // guarded by mutex_
  std::thread thread_;        // last: starts once the members above exist
};

SpeedLog::SpeedLog(bool hand_offs)
    : relay_(hand_offs ? std::make_unique<Relay>() : nullptr),
      reference_ns_(kReferenceProbeNs +
                    (hand_offs ? kRelayTrips * kReferenceTripNs : 0.0)),
      sensitivity_(hand_offs ? 1.0 : kComputeSensitivity) {}

SpeedLog::~SpeedLog() = default;

void SpeedLog::probe() {
  const std::uint64_t t0 = clock_ns();
  g_sink = g_sink + reference_kernel();
  if (relay_ != nullptr) {
    for (int i = 0; i < kRelayTrips; ++i) relay_->round_trip();
  }
  const std::uint64_t t1 = clock_ns();
  probes_.emplace_back(t0 + (t1 - t0) / 2, t1 - t0);
}

void SpeedLog::probe(int n) {
  for (int i = 0; i < n; ++i) probe();
}

double SpeedLog::slowdown_at(std::uint64_t t_ns) const {
  if (probes_.empty()) return 1.0;
  // Grow [lo, hi) outwards from t_ns, always taking the nearer probe.
  std::size_t hi = static_cast<std::size_t>(
      std::lower_bound(probes_.begin(), probes_.end(),
                       std::make_pair(t_ns, std::uint64_t{0})) -
      probes_.begin());
  std::size_t lo = hi;
  std::vector<double> window;
  while (window.size() < kWindow && (lo > 0 || hi < probes_.size())) {
    const bool take_hi =
        lo == 0 || (hi < probes_.size() &&
                    probes_[hi].first - t_ns < t_ns - probes_[lo - 1].first);
    window.push_back(static_cast<double>(
        take_hi ? probes_[hi++].second : probes_[--lo].second));
  }
  std::nth_element(window.begin(), window.begin() + window.size() / 2,
                   window.end());
  return std::pow(window[window.size() / 2] / reference_ns_, sensitivity_);
}

double SpeedLog::normalize(std::uint64_t begin_ns,
                           std::uint64_t end_ns) const {
  return static_cast<double>(end_ns - begin_ns) /
         slowdown_at(begin_ns + (end_ns - begin_ns) / 2);
}

double SpeedLog::median_slowdown() const {
  if (probes_.empty()) return 1.0;
  std::vector<double> ns;
  for (const auto& p : probes_) ns.push_back(static_cast<double>(p.second));
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return std::pow(ns[ns.size() / 2] / reference_ns_, sensitivity_);
}

}  // namespace perfbench
