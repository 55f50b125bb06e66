#include "core/compose.h"

#include "common/strings.h"

namespace egp {
namespace {

/// Merge cursor over one type's sorted candidate list, starting after the
/// mandatory top-1 attribute.
struct Cursor {
  const TypeCandidates* cands;
  double key_score;      // S(type)
  double weighted;       // S(type) * candidate score — the marginal gain
  uint32_t table_index;  // position within `keys`
  TypeId type;
  uint32_t next;  // next candidate index in cands->sorted

  /// The merge takes the largest cursor first; ties break on (type, next)
  /// for determinism. Written without branches: the max-pick's outcome is
  /// data-dependent, and a mispredicted branch costs more than evaluating
  /// every term.
  bool operator<(const Cursor& other) const {
    const bool same_weight = weighted == other.weighted;
    const bool same_type = type == other.type;
    return (weighted < other.weighted) |
           (same_weight & ((type > other.type) |
                           (same_type & (next > other.next))));
  }
};

/// The live cursors: at most one per key, held inline for up to
/// kComposeInlineKeys keys and in one spill buffer past that. A linear
/// max-pick over them pops in the same order a max-heap would.
class CursorSet {
 public:
  explicit CursorSet(size_t k) {
    if (k > kComposeInlineKeys) {
      spill_.resize(k);
      data_ = spill_.data();
    }
  }
  CursorSet(const CursorSet&) = delete;
  CursorSet& operator=(const CursorSet&) = delete;

  bool empty() const { return size_ == 0; }
  void Add(const Cursor& cursor) { data_[size_++] = cursor; }

  /// The largest cursor under operator<.
  Cursor& Max() {
    size_t best = 0;
    for (size_t i = 1; i < size_; ++i) {
      best = data_[best] < data_[i] ? i : best;
    }
    return data_[best];
  }

  /// Moves `cursor` (one returned by Max) to its next candidate, dropping
  /// it once its list is exhausted.
  void Advance(Cursor& cursor) {
    const uint32_t next = cursor.next + 1;
    if (next < cursor.cands->sorted.size()) {
      cursor.next = next;
      cursor.weighted = cursor.key_score * cursor.cands->sorted[next].score;
    } else {
      cursor = data_[--size_];
    }
  }

 private:
  Cursor inline_[kComposeInlineKeys];
  std::vector<Cursor> spill_;
  Cursor* data_ = inline_;
  size_t size_ = 0;
};

/// Theorem 3's merge over `keys` with n attributes in total: every table
/// takes its top candidate (`top1(i, candidate)`, in key order), then the
/// remaining n−k slots go to the globally best weighted candidates
/// (`pick(table_index, candidate, weighted)`, best first). Returns the
/// position of the first key without candidates, or keys.size().
template <typename Top1, typename Pick>
size_t Merge(const PreparedSchema& prepared, const std::vector<TypeId>& keys,
             uint32_t n, Top1&& top1, Pick&& pick) {
  const uint32_t k = static_cast<uint32_t>(keys.size());
  CursorSet cursors(k);
  for (uint32_t i = 0; i < k; ++i) {
    const TypeId t = keys[i];
    const TypeCandidates& cands = prepared.Candidates(t);
    if (cands.sorted.empty()) return i;
    const double key_score = prepared.KeyScore(t);
    top1(i, cands.sorted[0]);
    if (cands.sorted.size() > 1) {
      cursors.Add(Cursor{&cands, key_score, key_score * cands.sorted[1].score,
                         i, t, 1});
    }
  }
  for (uint32_t slot = 0; slot < n - k && !cursors.empty(); ++slot) {
    Cursor& top = cursors.Max();
    pick(top.table_index, top.cands->sorted[top.next], top.weighted);
    cursors.Advance(top);
  }
  return k;
}

}  // namespace

Result<Preview> ComposePreview(const PreparedSchema& prepared,
                               const std::vector<TypeId>& keys, uint32_t n) {
  const uint32_t k = static_cast<uint32_t>(keys.size());
  if (k == 0) return Status::InvalidArgument("ComposePreview: no key types");
  if (n < k) {
    return Status::InvalidArgument(StrFormat(
        "ComposePreview: n=%u < k=%u (each table needs one attribute)", n, k));
  }

  Preview preview;
  preview.tables.resize(k);
  for (uint32_t i = 0; i < k; ++i) preview.tables[i].key = keys[i];
  const size_t missing = Merge(
      prepared, keys, n,
      [&](uint32_t i, const NonKeyCandidate& candidate) {
        preview.tables[i].nonkeys.push_back(candidate);  // Theorem 3 top-1
      },
      [&](uint32_t i, const NonKeyCandidate& candidate, double) {
        preview.tables[i].nonkeys.push_back(candidate);
      });
  if (missing < k) {
    return Status::FailedPrecondition(
        StrFormat("type '%s' has no candidate non-key attributes",
                  prepared.schema().TypeName(keys[missing]).c_str()));
  }
  return preview;
}

ComposeBound ComposeBound::OfType(const PreparedSchema& prepared, TypeId t,
                                  uint32_t r) {
  const TypeCandidates& cands = prepared.Candidates(t);
  const double top1 = prepared.TableScore(t, 1);
  if (cands.size() < 2) return {top1, 0.0, 0.0};
  const size_t m = std::min<size_t>(cands.size(), size_t{r} + 1);
  return {top1, r * (prepared.KeyScore(t) * cands.sorted[1].score),
          prepared.TableScore(t, m) - top1};
}

double ComposePreviewScore(const PreparedSchema& prepared,
                           const std::vector<TypeId>& keys, uint32_t n) {
  const uint32_t k = static_cast<uint32_t>(keys.size());
  if (k == 0 || n < k) return -1.0;

  double score = 0.0;
  const size_t missing = Merge(
      prepared, keys, n,
      [&](uint32_t i, const NonKeyCandidate& candidate) {
        score += prepared.KeyScore(keys[i]) * candidate.score;
      },
      [&](uint32_t, const NonKeyCandidate&, double weighted) {
        score += weighted;
      });
  return missing < k ? -1.0 : score;
}

}  // namespace egp
