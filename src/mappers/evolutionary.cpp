// Population-based meta-heuristics (Table I "population-based" column).
//
//  * ga-spatial — GenMap [19]: a genetic algorithm over placement
//    genomes (one cell gene per op) for spatial fabrics; tournament
//    selection, uniform crossover, per-gene mutation, elitism.
//  * qea-bind  — Lee et al. [48]: quantum-inspired evolutionary
//    algorithm for binding under a fixed modulo schedule; a probability
//    vector per op over candidate cells is sampled ("observed") and
//    rotated toward the best individual each generation.
#include <algorithm>
#include <cstddef>
#include <optional>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

// Scores a binding genome by greedy realization: ops are placed in
// schedule order on their genome cells (sliding up to `slide_slack`
// cycles when allowed); unplaceable ops are skipped so the fitness
// stays informative ("how much of the DFG this genome maps"). `state`
// is reset first, so one state serves every genome of an II.
struct GenomeEval {
  int placed = 0;
  int route_steps = 0;
  std::optional<Mapping> mapping;

  // Higher is better.
  double Fitness(int total_ops) const {
    return placed * 1000.0 - route_steps + (placed == total_ops ? 1e6 : 0.0);
  }
};

GenomeEval EvaluateGenome(PlaceRouteState& state,
                          const std::vector<int>& cell_of_op,
                          const std::vector<int>& times, int slide_slack) {
  state.Reset();
  std::vector<OpId> order = state.MappableOps();
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return times[static_cast<size_t>(a)] != times[static_cast<size_t>(b)]
               ? times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)]
               : a < b;
  });
  GenomeEval eval;
  int steps = 0;
  for (OpId op : order) {
    const int cell = cell_of_op[static_cast<size_t>(op)];
    bool placed = false;
    for (int dt = 0; dt <= slide_slack && !placed; ++dt) {
      placed = state.TryPlace(op, cell, times[static_cast<size_t>(op)] + dt);
    }
    if (placed) {
      ++eval.placed;
      steps += state.last_route_steps();
    }
  }
  eval.route_steps = steps;
  if (eval.placed == static_cast<int>(state.MappableOps().size())) {
    eval.mapping = state.Finalize();
  }
  return eval;
}

class GeneticSpatialMapper final : public Mapper {
 public:
  std::string name() const override { return "ga-spatial"; }
  TechniqueClass technique() const override {
    return TechniqueClass::kMetaPopulation;
  }
  MappingKind kind() const override { return MappingKind::kSpatial; }
  std::string lineage() const override {
    return "genetic algorithm for spatial mapping (GenMap, Kojima et al. [19])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    return ObservedAttempt(*this, options, /*ii=*/1, [&]() -> Result<Mapping> {
      Rng rng(options.seed);
      const int ii = 1;
      const auto times = ModuloAsap(dfg, arch, ii);
      if (times.empty()) return Error::Unmappable("recurrences infeasible at II=1");
      const auto candidates = CandidateCellTable(dfg, arch);
      const int n = dfg.num_ops();
      PlaceRouteState state(dfg, arch, mrrg, ii);

      constexpr int kPopulation = 24;
      constexpr int kGenerations = 60;
      constexpr int kTournament = 3;
      constexpr double kMutate = 0.15;

      auto random_genome = [&] {
        std::vector<int> g(static_cast<size_t>(n), -1);
        for (OpId op = 0; op < n; ++op) {
          const auto& cells = candidates[static_cast<size_t>(op)];
          if (!cells.empty()) g[static_cast<size_t>(op)] = cells[rng.NextIndex(cells.size())];
        }
        return g;
      };

      std::vector<std::vector<int>> pop;
      std::vector<GenomeEval> evals;
      std::vector<double> fitness;
      const int total_ops = [&] {
        int k = 0;
        for (OpId op = 0; op < n; ++op) {
          if (!arch.IsFolded(dfg.op(op).opcode)) ++k;
        }
        return k;
      }();

      for (int i = 0; i < kPopulation; ++i) {
        pop.push_back(random_genome());
        evals.push_back(
            EvaluateGenome(state, pop.back(), times, options.extra_slack));
        if (evals.back().mapping) return *evals.back().mapping;
        fitness.push_back(evals.back().Fitness(total_ops));
      }

      for (int gen = 0; gen < kGenerations; ++gen) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("GA deadline expired");
        }
        auto tournament = [&]() -> const std::vector<int>& {
          size_t best = rng.NextIndex(pop.size());
          for (int k = 1; k < kTournament; ++k) {
            const size_t j = rng.NextIndex(pop.size());
            if (fitness[j] > fitness[best]) best = j;
          }
          return pop[best];
        };
        // Elite survives; the rest is bred.
        const size_t elite = static_cast<size_t>(
            std::max_element(fitness.begin(), fitness.end()) - fitness.begin());
        telemetry::SearchRecordCost(gen, fitness[elite]);
        std::vector<std::vector<int>> next{pop[elite]};
        while (next.size() < pop.size()) {
          const auto& a = tournament();
          const auto& b = tournament();
          std::vector<int> child(a.size());
          for (size_t g = 0; g < child.size(); ++g) {
            child[g] = rng.NextBool() ? a[g] : b[g];
            if (rng.NextDouble() < kMutate) {
              const auto& cells = candidates[g];
              if (!cells.empty()) child[g] = cells[rng.NextIndex(cells.size())];
            }
          }
          next.push_back(std::move(child));
        }
        pop = std::move(next);
        for (size_t i = 0; i < pop.size(); ++i) {
          evals[i] = EvaluateGenome(state, pop[i], times, options.extra_slack);
          if (evals[i].mapping) return *evals[i].mapping;
          fitness[i] = evals[i].Fitness(total_ops);
        }
      }
      return Error::Unmappable("GA exhausted its generations without a full mapping");
    });
  }
};

class QeaBinder final : public Mapper {
 public:
  std::string name() const override { return "qea-bind"; }
  TechniqueClass technique() const override {
    return TechniqueClass::kMetaPopulation;
  }
  MappingKind kind() const override { return MappingKind::kBinding; }
  std::string lineage() const override {
    return "quantum-inspired evolutionary binding (Lee, Choi & Dutt [48])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    const int n = dfg.num_ops();
    constexpr int kObservations = 16;
    constexpr int kGenerations = 50;
    constexpr double kRotate = 0.25;  // probability mass shifted per gen

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto times = ModuloAsap(dfg, arch, ii);
      if (times.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      const int total_ops = [&] {
        int k = 0;
        for (OpId op = 0; op < n; ++op) {
          if (!arch.IsFolded(dfg.op(op).opcode)) ++k;
        }
        return k;
      }();
      // Quantum registers: probability per (op, candidate cell index).
      std::vector<std::vector<double>> q(static_cast<size_t>(n));
      for (OpId op = 0; op < n; ++op) {
        const size_t k = candidates[static_cast<size_t>(op)].size();
        if (k > 0) q[static_cast<size_t>(op)].assign(k, 1.0 / static_cast<double>(k));
      }
      PlaceRouteState state(dfg, arch, mrrg, ii);
      auto observe = [&] {
        std::vector<int> genome(static_cast<size_t>(n), -1);
        for (OpId op = 0; op < n; ++op) {
          const auto& probs = q[static_cast<size_t>(op)];
          if (probs.empty()) continue;
          double r = rng.NextDouble(), acc = 0;
          size_t pick = probs.size() - 1;
          for (size_t i = 0; i < probs.size(); ++i) {
            acc += probs[i];
            if (r < acc) {
              pick = i;
              break;
            }
          }
          genome[static_cast<size_t>(op)] = candidates[static_cast<size_t>(op)][pick];
        }
        return genome;
      };

      std::vector<int> best_genome;
      double best_fitness = -1e18;
      for (int gen = 0; gen < kGenerations; ++gen) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("QEA deadline expired");
        }
        for (int o = 0; o < kObservations; ++o) {
          const auto genome = observe();
          // A little slide slack lets the greedy realization repair
          // local slot congestion the fixed modulo-ASAP schedule has.
          const auto eval =
              EvaluateGenome(state, genome, times, options.extra_slack);
          if (eval.mapping) return *eval.mapping;
          const double f = eval.Fitness(total_ops);
          if (f > best_fitness) {
            best_fitness = f;
            best_genome = genome;
          }
        }
        telemetry::SearchRecordCost(gen, best_fitness);
        // Rotation: shift probability mass toward the best genome.
        for (OpId op = 0; op < n; ++op) {
          auto& probs = q[static_cast<size_t>(op)];
          if (probs.empty() || best_genome.empty()) continue;
          const auto& cells = candidates[static_cast<size_t>(op)];
          const auto it = std::find(cells.begin(), cells.end(),
                                    best_genome[static_cast<size_t>(op)]);
          if (it == cells.end()) continue;
          const size_t target = static_cast<size_t>(it - cells.begin());
          for (size_t i = 0; i < probs.size(); ++i) {
            probs[i] *= (1.0 - kRotate);
          }
          probs[target] += kRotate;
        }
      }
      return Error::Unmappable("QEA exhausted its generations at this II");
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeGeneticSpatialMapper() {
  return std::make_unique<GeneticSpatialMapper>();
}
std::unique_ptr<Mapper> MakeQeaBinder() {
  return std::make_unique<QeaBinder>();
}

}  // namespace cgra
