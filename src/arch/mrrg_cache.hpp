// A stateless shim kept only for the benchmark runner
// (e2ebench/runner.cpp calls Get once per job and hands the object to
// the engine through EngineOptions::mrrg_cache, which nothing reads).
// Every Architecture owns its one MRRG (Architecture::mrrg()); Get
// forwards to it. The shim goes when the runner resolves requests
// through api::ResolveMapRequest (ROADMAP item 3).
#pragma once

#include <memory>

#include "arch/mrrg.hpp"

namespace cgra {

class MrrgCache {
 public:
  /// arch.mrrg(), built on first use, behind a pointer that does not
  /// own it: it lives as long as `arch`.
  std::shared_ptr<const Mrrg> Get(const Architecture& arch) const {
    return std::shared_ptr<const Mrrg>(std::shared_ptr<const Mrrg>(),
                                       &arch.mrrg());
  }
};

}  // namespace cgra
