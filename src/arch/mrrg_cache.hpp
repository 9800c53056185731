// Address-keyed memo of MRRG construction, kept only for the benchmark
// runner (e2ebench/runner.cpp builds one per job and hands it to the
// engine through EngineOptions::mrrg_cache). It goes when the runner
// resolves requests through api::ResolveMapRequest (ROADMAP item 3);
// everything else maps on an api::FabricStore fabric or on the one MRRG
// MappingEngine::Run builds.
//
// Entries are keyed by architecture identity (address); callers must
// keep each Architecture alive for as long as the cache may serve it.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "arch/mrrg.hpp"

namespace cgra {

class MrrgCache {
 public:
  MrrgCache() = default;
  MrrgCache(const MrrgCache&) = delete;
  MrrgCache& operator=(const MrrgCache&) = delete;

  /// The memoised MRRG for `arch`, building it on first use. Safe to
  /// call from any number of threads.
  std::shared_ptr<const Mrrg> Get(const Architecture& arch);

 private:
  std::mutex mu_;
  std::map<const Architecture*, std::shared_ptr<const Mrrg>> entries_;
};

}  // namespace cgra
