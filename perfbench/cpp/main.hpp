// Command line and the fixed parameters of the three workloads. The
// offered rates and SLOs were chosen once from a calibration run on a
// 4-core box (see perfbench/README.md) and are part of the benchmark's
// definition: changing one changes what every later result means.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string mode;  // run | serve
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache;  // cached paper-scale store and panel
  std::string work;   // this run's scratch directory
};

// poll-zipf: light wallets re-polling their addresses.
constexpr double kPollRate = 40;           // offered req/s
constexpr double kPollSloMs = 500;         // p99 limit for slo_qps
/// The polled addresses are one fixed set, the same for every run seed (the
/// seed draws the polls): which addresses are popular must not change the
/// reply sizes from run to run.
constexpr std::size_t kPollAddresses = 2000;
constexpr std::uint64_t kPollSetSeed = 20200704;
constexpr std::size_t kPollHeavyEvery = 50;  // one Addr4..6 poll per 50
constexpr double kPollZipfS = 1.0;
constexpr double kPollWarmupSeconds = 1;
constexpr std::uint32_t kPollSetups = 3;  // store reopens; median reported

// fresh-mix-append: new wallets syncing while blocks arrive.
constexpr double kFreshRate = 40;
constexpr double kFreshSloMs = 500;
constexpr std::uint32_t kFreshAppends = 32;
constexpr std::uint32_t kFreshAppendIntervalMs = 2000;
constexpr std::uint32_t kFreshSetups = 2;  // fresh ingests; median reported
/// Every n-th fresh-mix reply is kept and verified after the window.
constexpr std::size_t kFreshSampleEvery = 10;

// Window of the socket workloads: kFixedShare of --seconds at the offered
// rate, but at least kFixedRequests (the fewest that support a p99: ten
// samples beyond it); then a ladder of steps of kStepRequests (whole decks,
// so every step offers the same mix) at the workload's ladder rates,
// stopped at the first step that misses the SLO. The ladders start below
// the knee seen in calibration and end well past it, so they bracket it
// within about ten seconds. The traced run replaces the ladder with
// kOverheadRequests untraced requests and a traced copy of the fixed phase.
constexpr std::size_t kFixedRequests = 1000;
constexpr double kFixedShare = 2.0 / 3.0;
constexpr std::size_t kStepRequests = 200;
constexpr std::array<double, 4> kPollLadder = {80, 90, 100, 110};
constexpr std::array<double, 4> kFreshLadder = {60, 70, 80, 90};
constexpr std::size_t kOverheadRequests = 200;

// light-verify: distinct recorded background points, set-up repeats
// (one header sync takes a few milliseconds, so many are needed for a
// steady median) and an untimed warm-up of whole decks.
constexpr int kLightPoints = 64;
constexpr std::uint64_t kLightSampleSeed = 20200704;
constexpr std::uint32_t kLightSetups = 51;
constexpr std::size_t kLightWarmupDecks = 2;

int serve_main(const Args& args);

}  // namespace perfbench
