// The paper-scale chain every workload runs on, and the calls that put the
// serving stack together the way `lvqtool serve` does.
//
// The chain is WorkloadConfig{} under ProtocolConfig{}: 4096 blocks of 110
// background transactions, the Table III profiles, LVQ with 30 KiB x 10
// hash filters and M = 4096. It does not depend on the run seed, so it is
// built once per benchmark binary and cached (store plus address panel);
// the run seed only chooses requests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/transaction.hpp"
#include "core/protocol_config.hpp"
#include "store/store_util.hpp"

namespace perfbench {

/// Addresses the workloads draw from: the six Table III profiles
/// (Addr1..Addr6, in order) and a fixed pool of background addresses.
struct Panel {
  std::vector<lvq::Address> profiles;
  std::vector<lvq::Address> background;
};

lvq::ProtocolConfig paper_config();

/// Store flush policy of every store the benchmark writes. Recorded with
/// each result so both sides of a comparison use the same one.
constexpr lvq::SyncMode kSyncMode = lvq::SyncMode::kCommit;
const char* sync_mode_name();

/// Ensures `cache_dir` holds the paper-scale store (`cache_dir/store`) and
/// its panel, built by this exact binary; rebuilds them otherwise.
/// Returns the store directory.
std::string prepare_cache(const std::string& cache_dir);

Panel load_panel(const std::string& cache_dir);

/// Distinct background addresses of `blocks` (no profile address), in
/// order of first appearance, thinned to at most `limit`.
std::vector<lvq::Address> background_addresses(
    const std::vector<std::vector<lvq::Transaction>>& blocks,
    const std::vector<lvq::Address>& exclude, std::size_t limit);

/// `count` background-only blocks for appending on top of the paper chain,
/// generated from `seed`.
std::vector<std::vector<lvq::Transaction>> extra_blocks(std::uint64_t seed,
                                                        std::uint32_t count);

/// Removes a directory tree the benchmark created (store directories).
void remove_tree(const std::string& dir);

}  // namespace perfbench
