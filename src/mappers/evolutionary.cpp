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
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

// A binding genome's score under greedy realization: how much of the
// DFG it maps and at what routing cost.
struct GenomeScore {
  int placed = 0;
  int route_steps = 0;

  // Higher is better. A genome that places every op ends the search
  // before its fitness is read.
  double Fitness() const { return placed * 1000.0 - route_steps; }
};

// Greedy realization: ops are placed in `order` (ScheduleOrder) on
// their genome cells (sliding up to `slide_slack` cycles when allowed);
// unplaceable ops are skipped so the score stays informative ("how much
// of the DFG this genome maps"). `state` is reset first.
GenomeScore Realize(PlaceRouteState& state, const std::vector<OpId>& order,
                    const std::vector<int>& cell_of_op,
                    const std::vector<int>& times, int slide_slack) {
  state.Reset();
  GenomeScore score;
  for (OpId op : order) {
    const int cell = cell_of_op[static_cast<size_t>(op)];
    bool placed = false;
    for (int dt = 0; dt <= slide_slack && !placed; ++dt) {
      placed = state.TryPlace(op, cell, times[static_cast<size_t>(op)] + dt);
    }
    if (placed) {
      ++score.placed;
      score.route_steps += state.last_route_steps();
    }
  }
  return score;
}

// Scores the genomes of one II. Realization starts from Reset(), so
// with the state, schedule and slack fixed a score depends on the
// genome alone: a genome scored before is answered from the memo and
// touches neither the state, nor the router, nor the search log. The
// memo keeps the distinct genomes back to back in one flat array
// behind an open-addressing index, so scoring allocates no node per
// genome.
class GenomeScorer {
 public:
  GenomeScorer(const Dfg& dfg, const Architecture& arch, int ii,
               const std::vector<int>& times, int slide_slack)
      : state_(dfg, arch, ii),
        times_(times),
        order_(ScheduleOrder(state_.MappableOps(), times_)),
        slide_slack_(slide_slack),
        index_(size_t{1} << kInitialBits, kEmpty) {}

  GenomeScore Score(const std::vector<int>& genome) {
    assert(genome.size() == times_.size());
    const size_t mask = index_.size() - 1;
    size_t i = Home(genome.data());
    for (; index_[i] != kEmpty; i = (i + 1) & mask) {
      const auto seen = static_cast<size_t>(index_[i]);
      if (std::equal(genome.begin(), genome.end(), Genes(seen))) {
        // The first genome that places every op ends the search.
        assert(!Complete(scores_[seen]));
        return scores_[seen];
      }
    }
    index_[i] = static_cast<std::int32_t>(scores_.size());
    genes_.insert(genes_.end(), genome.begin(), genome.end());
    scores_.push_back(Realize(state_, order_, genome, times_, slide_slack_));
    if (2 * scores_.size() > index_.size()) Grow();
    return scores_.back();
  }

  /// True when `score` placed every mappable op; Finalize() then
  /// returns the mapping of the genome just scored.
  bool Complete(const GenomeScore& score) const {
    return score.placed == static_cast<int>(state_.MappableOps().size());
  }
  Mapping Finalize() const { return state_.Finalize(); }

  /// Distinct genomes scored so far.
  size_t distinct() const { return scores_.size(); }

 private:
  static constexpr int kInitialBits = 6;
  static constexpr std::int32_t kEmpty = -1;

  // A genome has one gene per op, as the schedule has one time per op.
  const int* Genes(size_t entry) const {
    return genes_.data() + entry * times_.size();
  }

  // FNV-1a over the genes, spread over the index by a Fibonacci multiply.
  size_t Home(const int* genes) const {
    std::uint64_t h = 1469598103934665603ull;
    for (size_t g = 0; g < times_.size(); ++g) {
      h = (h ^ static_cast<std::uint32_t>(genes[g])) * 1099511628211ull;
    }
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    index_.assign(index_.size() * 2, kEmpty);
    --shift_;
    const size_t mask = index_.size() - 1;
    for (size_t e = 0; e < scores_.size(); ++e) {
      size_t i = Home(Genes(e));
      while (index_[i] != kEmpty) i = (i + 1) & mask;
      index_[i] = static_cast<std::int32_t>(e);
    }
  }

  PlaceRouteState state_;
  std::vector<int> times_;
  std::vector<OpId> order_;
  int slide_slack_;
  std::vector<int> genes_;             ///< distinct genomes, back to back
  std::vector<GenomeScore> scores_;    ///< one per distinct genome
  std::vector<std::int32_t> index_;    ///< open addressing into scores_
  int shift_ = 64 - kInitialBits;
};

class GeneticSpatialMapper final : public Mapper {
 public:
  GeneticSpatialMapper()
      : Mapper({"ga-spatial", TechniqueClass::kMetaPopulation, MappingKind::kSpatial,
                "genetic algorithm for spatial mapping (GenMap, Kojima et al. [19])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return SpatialAttempt(*this, dfg, arch, options,
                          [&](int ii, const std::vector<int>& times) -> Result<Mapping> {
      Rng rng(options.seed);
      const auto candidates = CandidateCellTable(dfg, arch);
      const int n = dfg.num_ops();
      GenomeScorer scorer(dfg, arch, ii, times, options.extra_slack);

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
      std::vector<double> fitness;
      for (int i = 0; i < kPopulation; ++i) {
        pop.push_back(random_genome());
        const GenomeScore score = scorer.Score(pop.back());
        if (scorer.Complete(score)) return scorer.Finalize();
        fitness.push_back(score.Fitness());
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
        // The elite and any repeated child are memo lookups.
        for (size_t i = 0; i < pop.size(); ++i) {
          const GenomeScore score = scorer.Score(pop[i]);
          if (scorer.Complete(score)) return scorer.Finalize();
          fitness[i] = score.Fitness();
        }
      }
      return Error::Unmappable("GA exhausted its generations without a full mapping");
    });
  }
};

class QeaBinder final : public Mapper {
 public:
  QeaBinder()
      : Mapper({"qea-bind", TechniqueClass::kMetaPopulation, MappingKind::kBinding,
                "quantum-inspired evolutionary binding (Lee, Choi & Dutt [48])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    const int n = dfg.num_ops();
    constexpr int kObservations = 16;
    constexpr int kGenerations = 50;
    constexpr double kRotate = 0.25;  // probability mass shifted per gen

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& times) -> Result<Mapping> {
      // Quantum registers: probability per (op, candidate cell index).
      std::vector<std::vector<double>> q(static_cast<size_t>(n));
      for (OpId op = 0; op < n; ++op) {
        const size_t k = candidates[static_cast<size_t>(op)].size();
        if (k > 0) q[static_cast<size_t>(op)].assign(k, 1.0 / static_cast<double>(k));
      }
      // A little slide slack lets the greedy realization repair local
      // slot congestion the fixed modulo-ASAP schedule has. A converged
      // register observes the same genome again: a memo lookup.
      GenomeScorer scorer(dfg, arch, ii, times, options.extra_slack);
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
          const GenomeScore score = scorer.Score(genome);
          if (scorer.Complete(score)) return scorer.Finalize();
          const double f = score.Fitness();
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

namespace evolutionary_internal {

MemoCheck CheckGenomeMemo(const Dfg& dfg, const Architecture& arch, int ii,
                          std::uint64_t seed, int genomes) {
  MemoCheck check;
  const auto candidates = CandidateCellTable(dfg, arch);
  Rng rng(seed);
  // Each genome is fresh, a repeat of an earlier one, or an earlier one
  // with one gene drawn again.
  std::vector<std::vector<int>> stream;
  for (int i = 0; i < genomes; ++i) {
    const size_t kind = stream.empty() ? 0 : rng.NextIndex(3);
    std::vector<int> genome;
    if (kind == 0) {
      genome.assign(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t op = 0; op < genome.size(); ++op) {
        const auto& cells = candidates[op];
        if (!cells.empty()) genome[op] = cells[rng.NextIndex(cells.size())];
      }
    } else {
      genome = stream[rng.NextIndex(stream.size())];
      if (kind == 2) {
        const size_t op = rng.NextIndex(genome.size());
        const auto& cells = candidates[op];
        if (!cells.empty()) genome[op] = cells[rng.NextIndex(cells.size())];
      }
    }
    stream.push_back(std::move(genome));
  }

  const int slack = MapperOptions{}.extra_slack;
  for (const int at : {ii, ii + 1}) {
    const auto times = ModuloAsap(dfg, arch, at);
    if (times.empty()) continue;
    GenomeScorer scorer(dfg, arch, at, times, slack);
    int scored = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      PlaceRouteState state(dfg, arch, at);
      const GenomeScore fresh =
          Realize(state, ScheduleOrder(state.MappableOps(), times), stream[i],
                  times, slack);
      // A full mapping ends the mappers' search: never scored again.
      if (scorer.Complete(fresh)) continue;
      const GenomeScore memo = scorer.Score(stream[i]);
      ++scored;
      if (check.mismatch.empty() && (memo.placed != fresh.placed ||
                                     memo.route_steps != fresh.route_steps)) {
        check.mismatch = StrFormat(
            "genome %zu at II %d: scorer placed %d ops with %d route steps, "
            "a fresh state %d with %d",
            i, at, memo.placed, memo.route_steps, fresh.placed,
            fresh.route_steps);
      }
    }
    check.scored += scored;
    check.hits += scored - static_cast<int>(scorer.distinct());
  }
  return check;
}

}  // namespace evolutionary_internal

std::unique_ptr<Mapper> MakeGeneticSpatialMapper() {
  return std::make_unique<GeneticSpatialMapper>();
}
std::unique_ptr<Mapper> MakeQeaBinder() {
  return std::make_unique<QeaBinder>();
}

}  // namespace cgra
