#include "stack.hpp"

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "bench_lib.hpp"
#include "core/chain_builder.hpp"
#include "store/disk_chain_store.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kPanelBackground = 65536;

/// Identity of the running binary: a cache built by another build (or
/// another version of the program) is never reused.
std::string binary_key() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return std::to_string(fnv1a64(ByteSpan{data.data(), data.size()})) + "-" +
         std::to_string(data.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_addresses(std::ofstream& out, const std::vector<Address>& as) {
  const std::uint64_t n = as.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  for (const Address& a : as) {
    out.write(reinterpret_cast<const char*>(a.id.bytes.data()),
              static_cast<std::streamsize>(a.id.bytes.size()));
  }
}

std::vector<Address> read_addresses(std::ifstream& in) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in || n > (1u << 24)) throw std::runtime_error("corrupt panel file");
  std::vector<Address> as(n);
  for (Address& a : as) {
    in.read(reinterpret_cast<char*>(a.id.bytes.data()),
            static_cast<std::streamsize>(a.id.bytes.size()));
  }
  if (!in) throw std::runtime_error("truncated panel file");
  return as;
}

}  // namespace

lvq::ProtocolConfig paper_config() { return lvq::ProtocolConfig{}; }

const char* sync_mode_name() {
  switch (kSyncMode) {
    case lvq::SyncMode::kNone: return "none";
    case lvq::SyncMode::kCommit: return "commit";
    case lvq::SyncMode::kParanoid: return "paranoid";
  }
  return "?";
}

std::vector<Address> background_addresses(
    const std::vector<std::vector<lvq::Transaction>>& blocks,
    const std::vector<Address>& exclude, std::size_t limit) {
  std::set<Address> skip(exclude.begin(), exclude.end());
  std::set<Address> seen;
  std::vector<Address> order;
  for (const auto& block : blocks) {
    for (const lvq::Transaction& tx : block) {
      for (const lvq::TxOutput& o : tx.outputs) {
        if (!skip.count(o.address) && seen.insert(o.address).second) {
          order.push_back(o.address);
        }
      }
    }
  }
  if (order.size() <= limit) return order;
  std::vector<Address> thinned;
  thinned.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    thinned.push_back(order[i * order.size() / limit]);
  }
  return thinned;
}

std::string prepare_cache(const std::string& cache_dir) {
  const std::string store_dir = cache_dir + "/store";
  const std::string key = binary_key();
  if (read_file(cache_dir + "/KEY") == key) return store_dir;

  remove_tree(cache_dir);
  fs::create_directories(cache_dir);
  auto workload = std::make_shared<const lvq::Workload>(
      lvq::generate_workload(lvq::WorkloadConfig{}));
  Panel panel;
  for (const lvq::AddressProfile& p : workload->profiles) {
    panel.profiles.push_back(p.address);
  }
  panel.background =
      background_addresses(workload->blocks, panel.profiles, kPanelBackground);
  {
    auto store = lvq::DiskChainStore::open(
        store_dir, paper_config(), lvq::DiskChainStore::Options{false, kSyncMode});
    lvq::ChainBuildOptions bopts;
    bopts.store = store.get();
    lvq::ChainBuilder::build(workload, paper_config(), bopts);
  }
  {
    std::ofstream out(cache_dir + "/panel.bin", std::ios::binary);
    write_addresses(out, panel.profiles);
    write_addresses(out, panel.background);
    if (!out) throw std::runtime_error("cannot write panel file");
  }
  std::ofstream(cache_dir + "/KEY") << key;
  return store_dir;
}

Panel load_panel(const std::string& cache_dir) {
  std::ifstream in(cache_dir + "/panel.bin", std::ios::binary);
  if (!in) throw std::runtime_error("missing panel file in " + cache_dir);
  Panel p;
  p.profiles = read_addresses(in);
  p.background = read_addresses(in);
  if (p.profiles.size() != 6) throw std::runtime_error("panel needs 6 profiles");
  return p;
}

std::vector<std::vector<lvq::Transaction>> extra_blocks(std::uint64_t seed,
                                                        std::uint32_t count) {
  lvq::WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.num_blocks = count;
  cfg.profiles.clear();
  return lvq::generate_workload(cfg).blocks;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace perfbench
