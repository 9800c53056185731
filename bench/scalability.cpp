// The §IV-B scalability study: "while legacy CGRAs are composed of
// tens of cells ... modern CGRAs contain hundreds to thousands of
// cells. The issue is to effectively make use of the massive number of
// cells."
//
// Two sweeps:
//   1. fabric sweep — a fixed wide kernel on 4x4 -> 16x16 arrays,
//      flat IMS vs hierarchical (HiMap [26]) vs exhaustive B&B
//      (compile-time blow-up of the exact method);
//   2. workload sweep — growing unrolled dot products on the 16x16,
//      showing where flat search slows and clustering holds.
#include <cstdio>
#include <vector>

#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/mappers.hpp"
#include "mappers/registry.hpp"
#include "sim/harness.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace cgra;

namespace {

Architecture SquareFabric(int n) {
  ArchParams p;
  p.rows = p.cols = n;
  p.rf_kind = RfKind::kRotating;
  p.num_banks = n / 2;
  if (n >= 8) p.topology = Topology::kHop2;
  p.name = StrFormat("%dx%d", n, n);
  return Architecture(p);
}

void Run(const Mapper& mapper, const Kernel& kernel, const Architecture& arch,
         TextTable& table, const char* sweep_label) {
  MapperOptions options;
  options.deadline = Deadline::AfterSeconds(20);
  // A per-run trace turns "TIMEOUT" into a diagnosis: how many IIs the
  // mapper got through and how hard the backing solver worked before
  // the budget ran out.
  MapTrace trace;
  options.observer = &trace;
  WallTimer timer;
  const auto r = RunEndToEnd(mapper, kernel, arch, options);
  const double ms = timer.Millis();
  if (r.ok()) {
    table.AddRow({sweep_label, arch.params().name, kernel.name, mapper.name(),
                  StrFormat("%d", r->mapping.ii), StrFormat("%.1f", ms), "-"});
    return;
  }
  const char* why = r.error().code == Error::Code::kResourceLimit
                        ? "TIMEOUT"
                        : "unmapped";
  int max_ii = -1;
  long long steps = 0;
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    if (a.ii > max_ii) max_ii = a.ii;
    if (a.solver_steps > 0) steps += a.solver_steps;
  }
  std::string detail = StrFormat("%d II attempts", trace.attempt_count());
  if (max_ii >= 0) detail += StrFormat(", last II %d", max_ii);
  if (steps > 0) detail += StrFormat(", %lld solver steps", steps);
  table.AddRow({sweep_label, arch.params().name, kernel.name, mapper.name(),
                why, StrFormat("%.1f", ms), detail});
}

}  // namespace

int main() {
  std::printf("=== §IV-B scalability: flat vs hierarchical vs exact ===\n\n");
  TextTable table(
      {"sweep", "fabric", "kernel", "mapper", "II", "map ms", "on failure"});

  const auto& registry = MapperRegistry::Global();
  const Mapper* ims = registry.Find("ims");
  const Mapper* himap = registry.Find("himap");
  const Mapper* bnb = registry.Find("bnb");
  if (!ims || !himap || !bnb) {
    std::fprintf(stderr, "registry is missing an expected mapper\n");
    return 1;
  }

  // Sweep 1: fixed 16-lane kernel across fabric sizes.
  {
    const Kernel k = MakeWideDotProduct(8, 16, 0x5CA1);
    for (int n : {4, 8, 16}) {
      const Architecture arch = SquareFabric(n);
      Run(*ims, k, arch, table, "fabric");
      Run(*himap, k, arch, table, "fabric");
      if (n <= 8) Run(*bnb, k, arch, table, "fabric");
      table.AddRule();
    }
  }
  // Sweep 2: growing workloads on the 16x16.
  {
    const Architecture arch = SquareFabric(16);
    for (int lanes : {4, 8, 16, 24}) {
      const Kernel k = MakeWideDotProduct(lanes, 16, 0x5CA2);
      Run(*ims, k, arch, table, "workload");
      Run(*himap, k, arch, table, "workload");
      table.AddRule();
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected shape: the exact method's compile time explodes with the\n"
      "array (it is absent from the 16x16 rows on purpose); flat IMS keeps\n"
      "mapping but its time grows with cells x ops; clustering (HiMap)\n"
      "bounds the per-region search — the survey's argument for\n"
      "hierarchical approaches on modern, large fabrics.\n");
  return 0;
}
