#include "data/dataset.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace corrob {

namespace {

/// `base` when `names` is empty, else a copy of it extended by `names`.
std::shared_ptr<const NameTable> ExtendNames(
    const std::shared_ptr<const NameTable>& base,
    std::span<const std::string> names) {
  if (names.empty() && base != nullptr) return base;
  auto table = base != nullptr ? std::make_shared<NameTable>(*base)
                               : std::make_shared<NameTable>();
  for (const std::string& name : names) {
    const int32_t next = table->size();
    CORROB_CHECK(table->Add(name) == next)
        << "name '" << name << "' is already registered";
  }
  return table;
}

/// An edit that changes one orientation's row `row` at column `col`.
/// `delta` is the row's change in vote count: +1 insert, -1 erase,
/// 0 overwrite.
struct Change {
  int32_t row;
  int32_t col;
  Vote vote;
  int32_t delta;
};

int32_t ColumnOf(const SourceVote& vote) { return vote.source; }
int32_t ColumnOf(const FactVote& vote) { return vote.fact; }

/// Writes one orientation of a patched dataset: the base entries
/// between touched rows are copied in whole runs and each touched row
/// is merged with its changes in column order. `changes` is sorted by
/// (row, col); `rows` may exceed the base's row count.
template <typename Entry>
void PatchRows(const std::vector<size_t>& base_offsets,
               const std::vector<Entry>& base_entries, int32_t rows,
               std::span<const Change> changes, std::vector<size_t>* offsets,
               std::vector<Entry>* entries) {
  // Rows past the base's (new names) start where the base ends; an
  // empty `base_offsets` is a default-constructed base.
  auto base_begin = [&](size_t row) {
    return row < base_offsets.size() ? base_offsets[row] : base_entries.size();
  };

  // A row starts at its base start shifted by the net votes the
  // changes insert into earlier rows (unsigned wrap-around makes a net
  // erasure come out right).
  offsets->resize(static_cast<size_t>(rows) + 1);
  size_t shift = 0;
  size_t c = 0;
  for (size_t row = 0; row < offsets->size(); ++row) {
    (*offsets)[row] = base_begin(row) + shift;
    for (; c < changes.size() && changes[c].row == static_cast<int32_t>(row);
         ++c) {
      shift += static_cast<size_t>(changes[c].delta);
    }
  }

  entries->reserve(offsets->back());
  size_t copied = 0;  // base entries already written
  for (c = 0; c < changes.size();) {
    const int32_t row = changes[c].row;
    const size_t end = base_begin(static_cast<size_t>(row) + 1);
    size_t i = base_begin(static_cast<size_t>(row));
    entries->insert(entries->end(), base_entries.begin() + copied,
                    base_entries.begin() + i);
    for (; c < changes.size() && changes[c].row == row; ++c) {
      const Change& change = changes[c];
      while (i < end && ColumnOf(base_entries[i]) < change.col) {
        entries->push_back(base_entries[i++]);
      }
      if (i < end && ColumnOf(base_entries[i]) == change.col) ++i;
      if (change.vote != Vote::kNone) {
        entries->push_back(Entry{change.col, change.vote});
      }
    }
    copied = i;  // the row's tail goes out with the next run
  }
  entries->insert(entries->end(), base_entries.begin() + copied,
                  base_entries.end());
}

}  // namespace

int32_t NameTable::Add(const std::string& name) {
  auto [it, inserted] = index_.try_emplace(name, size());
  if (inserted) names_.push_back(name);
  return it->second;
}

Result<SourceId> Dataset::FindSource(const std::string& name) const {
  const SourceId id = sources_ != nullptr ? sources_->Find(name) : -1;
  if (id < 0) return Status::NotFound("no source named '" + name + "'");
  return id;
}

Result<FactId> Dataset::FindFact(const std::string& name) const {
  const FactId id = facts_ != nullptr ? facts_->Find(name) : -1;
  if (id < 0) return Status::NotFound("no fact named '" + name + "'");
  return id;
}

Vote Dataset::GetVote(SourceId s, FactId f) const {
  auto votes = VotesOnFact(f);
  auto it = std::lower_bound(
      votes.begin(), votes.end(), s,
      [](const SourceVote& sv, SourceId id) { return sv.source < id; });
  if (it != votes.end() && it->source == s) return it->vote;
  return Vote::kNone;
}

int32_t Dataset::CountVotes(FactId f, Vote vote) const {
  int32_t count = 0;
  for (const SourceVote& sv : VotesOnFact(f)) {
    if (sv.vote == vote) ++count;
  }
  return count;
}

bool Dataset::IsAffirmativeOnly(FactId f) const {
  auto votes = VotesOnFact(f);
  if (votes.empty()) return false;
  for (const SourceVote& sv : votes) {
    if (sv.vote != Vote::kTrue) return false;
  }
  return true;
}

Dataset Dataset::WithEdits(std::span<const std::string> new_sources,
                           std::span<const std::string> new_facts,
                           std::span<const VoteEdit> writes) const {
  return Patched(ExtendNames(sources_, new_sources),
                 ExtendNames(facts_, new_facts), writes);
}

Dataset Dataset::Patched(std::shared_ptr<const NameTable> source_names,
                         std::shared_ptr<const NameTable> fact_names,
                         std::span<const VoteEdit> writes) const {
  Dataset out;
  out.sources_ = std::move(source_names);
  out.facts_ = std::move(fact_names);
  const int32_t facts = out.num_facts();
  const int32_t sources = out.num_sources();

  // Last writer wins: a stable order by (fact, source) keeps each
  // pair's writes in log order, and only the last of each run
  // survives. A log already in that order (a CSV load) is not copied.
  const auto before = [](const VoteEdit& a, const VoteEdit& b) {
    return std::pair(a.fact, a.source) < std::pair(b.fact, b.source);
  };
  std::vector<VoteEdit> sorted;
  if (!std::is_sorted(writes.begin(), writes.end(), before)) {
    sorted.assign(writes.begin(), writes.end());
    std::stable_sort(sorted.begin(), sorted.end(), before);
    writes = sorted;
  }

  std::vector<Change> by_fact;
  by_fact.reserve(writes.size());
  int64_t votes = num_votes_;
  for (size_t i = 0; i < writes.size(); ++i) {
    const VoteEdit& edit = writes[i];
    CORROB_CHECK(edit.fact >= 0 && edit.fact < facts && edit.source >= 0 &&
                 edit.source < sources)
        << "edit (fact " << edit.fact << ", source " << edit.source
        << ") out of range";
    if (i + 1 < writes.size() && !before(edit, writes[i + 1])) continue;
    const Vote old = edit.fact < num_facts() ? GetVote(edit.source, edit.fact)
                                             : Vote::kNone;
    if (old == edit.vote) continue;
    const int32_t delta =
        (edit.vote != Vote::kNone ? 1 : 0) - (old != Vote::kNone ? 1 : 0);
    by_fact.push_back(Change{edit.fact, edit.source, edit.vote, delta});
    votes += delta;
  }

  // One stable counting pass by source turns the (fact, source) order
  // into (source, fact) order.
  std::vector<size_t> next(static_cast<size_t>(sources) + 1, 0);
  for (const Change& change : by_fact) ++next[change.col + 1];
  for (int32_t s = 0; s < sources; ++s) next[s + 1] += next[s];
  std::vector<Change> by_source(by_fact.size());
  for (const Change& change : by_fact) {
    by_source[next[change.col]++] =
        Change{change.col, change.row, change.vote, change.delta};
  }

  PatchRows(fact_offsets_, fact_votes_, facts, by_fact, &out.fact_offsets_,
            &out.fact_votes_);
  PatchRows(source_offsets_, source_votes_, sources, by_source,
            &out.source_offsets_, &out.source_votes_);
  out.num_votes_ = votes;
  return out;
}

SourceId DatasetBuilder::AddSource(const std::string& name) {
  return sources_.Add(name);
}

FactId DatasetBuilder::AddFact(const std::string& name) {
  return facts_.Add(name);
}

Status DatasetBuilder::SetVote(SourceId s, FactId f, Vote vote) {
  if (s < 0 || s >= num_sources()) {
    return Status::OutOfRange("source id " + std::to_string(s) +
                              " out of range [0, " +
                              std::to_string(num_sources()) + ")");
  }
  if (f < 0 || f >= num_facts()) {
    return Status::OutOfRange("fact id " + std::to_string(f) +
                              " out of range [0, " +
                              std::to_string(num_facts()) + ")");
  }
  log_.push_back(VoteEdit{f, s, vote});
  return Status::OK();
}

Vote DatasetBuilder::GetVote(SourceId s, FactId f) const {
  CORROB_CHECK(s >= 0 && s < num_sources()) << "source id out of range";
  CORROB_CHECK(f >= 0 && f < num_facts()) << "fact id out of range";
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->fact == f && it->source == s) return it->vote;
  }
  return Vote::kNone;
}

void DatasetBuilder::SetVoteByName(const std::string& source,
                                   const std::string& fact, Vote vote) {
  SourceId s = AddSource(source);
  FactId f = AddFact(fact);
  CORROB_CHECK_OK(SetVote(s, f, vote));
}

Dataset DatasetBuilder::Build() {
  const std::vector<VoteEdit> log = std::exchange(log_, {});
  return Dataset().Patched(
      std::make_shared<const NameTable>(std::exchange(sources_, {})),
      std::make_shared<const NameTable>(std::exchange(facts_, {})), log);
}

}  // namespace corrob
