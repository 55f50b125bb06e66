#include "core/advisor.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace egp {

ConstraintSuggestion SuggestConstraints(const PreparedSchema& prepared,
                                        const DisplayBudget& budget) {
  ConstraintSuggestion suggestion;

  const size_t eligible = prepared.pair_rows().eligible().size();

  // Vertical budget: how many table blocks fit.
  const uint32_t table_blocks =
      std::max<uint32_t>(1, budget.height_rows /
                                std::max<uint32_t>(1, budget.rows_per_table));
  uint32_t k = std::clamp<uint32_t>(table_blocks, 1,
                                    static_cast<uint32_t>(
                                        std::max<size_t>(eligible, 1)));
  // Previews with a single table rarely convey a graph's structure; use
  // at least two when the schema allows it.
  if (k < 2 && eligible >= 2) k = 2;

  // Horizontal budget: columns per table, minus the key column.
  const uint32_t columns_per_table = std::max<uint32_t>(
      1, budget.width_chars / std::max<uint32_t>(1, budget.column_width) - 1);
  // Cap by what the schema can actually supply.
  size_t total_candidates = 0;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    total_candidates += prepared.Candidates(t).size();
  }
  uint32_t n = std::min<uint32_t>(k * columns_per_table,
                                  static_cast<uint32_t>(total_candidates));
  n = std::max(n, k);  // every table needs one attribute

  // Distance suggestions from the schema's metric structure.
  const SchemaDistanceMatrix& distances = prepared.distances();
  const double avg_path = distances.AveragePathLength();
  const uint32_t diameter = std::max<uint32_t>(distances.Diameter(), 1);
  uint32_t tight_d = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(avg_path / 2.0)));
  // A tight constraint at or beyond the diameter is vacuous (§6.2).
  tight_d = std::min(tight_d, diameter > 1 ? diameter - 1 : 1);
  uint32_t diverse_d = std::min<uint32_t>(
      diameter, static_cast<uint32_t>(std::lround(avg_path)) + 1);
  diverse_d = std::max<uint32_t>(diverse_d, 2);

  suggestion.size = SizeConstraint{k, n};
  suggestion.tight_d = tight_d;
  suggestion.diverse_d = diverse_d;
  suggestion.rationale = StrFormat(
      "display %ux%u fits %u table blocks of %u rows and %u columns of %u "
      "chars; schema: %zu eligible key types, diameter %u, average path "
      "%.2f -> k=%u, n=%u, tight d=%u (vacuous at >= diameter), diverse "
      "d=%u",
      budget.width_chars, budget.height_rows, table_blocks,
      budget.rows_per_table, columns_per_table + 1, budget.column_width,
      eligible, diameter, avg_path, k, n, tight_d, diverse_d);
  return suggestion;
}

}  // namespace egp
