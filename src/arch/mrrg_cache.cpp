#include "arch/mrrg_cache.hpp"

namespace cgra {

std::shared_ptr<const Mrrg> MrrgCache::Get(const Architecture& arch) {
  // Build under the lock so concurrent first requests for the same
  // fabric do the work once.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(&arch);
  if (it != entries_.end()) return it->second;
  auto mrrg = std::make_shared<const Mrrg>(arch);
  entries_.emplace(&arch, mrrg);
  return mrrg;
}

}  // namespace cgra
