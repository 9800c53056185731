// Ablations of the design choices DESIGN.md calls out.
//
// (a) IMS search knobs: eviction budget and window slack — how much of
//     the scheduler's robustness comes from each mechanism;
// (b) fabric knobs: routing channels and RF size — how interconnect
//     and register resources buy II (the §II-A architecture dimensions
//     seen from the mapper's side).
#include <cstdio>

#include "arch/mrrg.hpp"
#include "ir/kernels.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "sim/harness.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace cgra;

int main() {
  std::printf("=== ablations ===\n\n");

  // (a) IMS knobs, directly through ImsPlaceRoute.
  std::printf("--- (a) IMS: eviction budget x window slack ---\n");
  {
    ArchParams p;
    p.rows = p.cols = 4;
    p.rf_kind = RfKind::kRotating;
    const Architecture arch(p);
    const auto suite = StandardKernelSuite(8, 0xAB1);
    TextTable table({"evict budget", "slack", "mapped", "avg II", "ms total"});
    for (const int budget : {0, 2, 8}) {
      for (const int slack : {0, 2, 8}) {
        int mapped = 0;
        long long ii_sum = 0;
        WallTimer timer;
        for (const Kernel& k : suite) {
          const auto order = HeightPriorityOrder(k.dfg, arch);
          const auto candidates = CandidateCellTable(k.dfg, arch);
          const MiiBounds mii = ComputeMii(k.dfg, arch, 16);
          MapperOptions options;
          options.extra_slack = slack;
          ImsOptions ims;
          ims.eviction_budget_factor = budget;
          bool ok = false;
          for (int ii = mii.mii(); ii <= 8 && !ok; ++ii) {
            const std::vector<int> asap = ModuloAsap(k.dfg, arch, ii);
            if (asap.empty()) continue;
            const auto r = ImsPlaceRoute(k.dfg, arch, ii, asap, order, candidates,
                                         options, ims);
            if (r.ok()) {
              ok = true;
              ++mapped;
              ii_sum += ii;
            }
          }
        }
        table.AddRow({StrFormat("%d", budget), StrFormat("%d", slack),
                      StrFormat("%d/%zu", mapped, suite.size()),
                      mapped ? StrFormat("%.2f", double(ii_sum) / mapped) : "-",
                      StrFormat("%.1f", timer.Millis())});
      }
      table.AddRule();
    }
    std::printf("%s\n", table.Render().c_str());
  }

  // (b) fabric knobs: route channels x RF size.
  std::printf("--- (b) fabric: routing channels x RF size (achieved II) ---\n");
  {
    auto mapper = MakeIterativeModuloScheduler();
    TextTable table({"kernel", "rt=0,rf=2", "rt=0,rf=4", "rt=1,rf=2",
                     "rt=1,rf=4", "rt=2,rf=8"});
    struct Cfg {
      int rt, rf;
    };
    const Cfg cfgs[] = {{0, 2}, {0, 4}, {1, 2}, {1, 4}, {2, 8}};
    for (const Kernel& k :
         {MakeFir4(16, 0xAB2), MakeSobelRow(16, 0xAB3), MakeMac2(16, 0xAB4),
          MakeButterfly(16, 0xAB5)}) {
      std::vector<std::string> row{k.name};
      for (const Cfg& c : cfgs) {
        ArchParams p;
        p.rows = p.cols = 4;
        p.rf_kind = RfKind::kRotating;
        p.route_channels = c.rt;
        p.rf_size = c.rf;
        const Architecture arch(p);
        MapperOptions options;
        options.deadline = Deadline::AfterSeconds(10);
        const auto r = RunEndToEnd(*mapper, k, arch, options);
        row.push_back(r.ok() ? StrFormat("%d", r->mapping.ii) : "-");
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s\n", table.Render().c_str());
  }

  std::printf(
      "expected shape: (a) with NO eviction budget and NO slack, IMS loses\n"
      "kernels or needs higher II; each mechanism recovers part, together\n"
      "they map everything — the 'iterative' in iterative modulo\n"
      "scheduling earns its name. (b) richer interconnect/RFs lower the\n"
      "achieved II; carried-history kernels (fir4, sobel) need registers,\n"
      "fan-out kernels profit from routing channels.\n");
  return 0;
}
