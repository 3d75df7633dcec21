// LEAP-style reproduction-pipeline operators.
//
// The paper builds its offspring pipeline (Listing 1) from composable
// operators:  pipe(parents, random_selection, clone, mutate_gaussian(...),
// eval_pool(...), rank_ordinal_sort(parents), crowding_distance_calc,
// truncation_selection(...)).  We reproduce the same algebra with typed
// C++ stages: a SourceOp draws from the parent population, StreamOps map
// individual -> individual, and PoolOps consume the stream into a population.
// `pipe()` composes them left to right, like toolz.pipe.
#pragma once

#include <functional>
#include <vector>

#include "ea/context.hpp"
#include "ea/individual.hpp"
#include "ea/representation.hpp"
#include "util/rng.hpp"

namespace dpho::ea {

/// Produces the next individual of an (unbounded) stream.
using SourceOp = std::function<Individual()>;
/// Transforms one streamed individual.
using StreamOp = std::function<Individual(Individual)>;
/// Consumes a source, producing a finished population.
using PoolOp = std::function<Population(const SourceOp&)>;
/// Transforms a finished population (sorting, selection).
using PopulationOp = std::function<Population(Population)>;

/// Uniform-random selection (with replacement) from `parents`.
SourceOp random_selection(const Population& parents, util::Rng& rng);

/// Clones each streamed individual with a fresh UUID and clears its fitness.
StreamOp clone_op(util::Rng& rng);

/// Gaussian mutation of every gene ("isotropic" expected_num_mutations in
/// LEAP terms): gene[i] += N(0, std[i]), clamped to hard bounds.  The sigma
/// vector is read from the context at call time so per-generation annealing
/// (context.mutation_std() *= factor) is picked up automatically.
StreamOp mutate_gaussian(Context& context, const std::vector<Range>& hard_bounds,
                         util::Rng& rng);

/// Pulls `size` individuals from the stream and evaluates them through the
/// given evaluation function (the Dask eval_pool analogue; the HPC-parallel
/// version lives in core::EvolutionEngine).
PoolOp eval_pool(std::size_t size,
                 const std::function<void(std::vector<Individual*>&)>& evaluate);

/// Composes: source | stream ops... | pool | population ops...
/// Convenience overloads cover the shapes used by the NSGA-II pipeline.
Population pipe(const SourceOp& source, const std::vector<StreamOp>& stream_ops,
                const PoolOp& pool, const std::vector<PopulationOp>& population_ops);

/// Truncation selection keyed by (rank ascending, crowding distance
/// descending), the NSGA-II survivor criterion (Listing 1, lines 15-19).
PopulationOp truncation_selection(std::size_t size);

}  // namespace dpho::ea
