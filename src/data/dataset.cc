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

std::string Dataset::SignatureKey(FactId f) const {
  std::string key;
  auto votes = VotesOnFact(f);
  key.reserve(votes.size() * 4);
  for (const SourceVote& sv : votes) {
    if (!key.empty()) key += '|';
    key += std::to_string(sv.source);
    key += VoteToChar(sv.vote);
  }
  return key;
}

Dataset Dataset::WithEdits(std::span<const std::string> new_sources,
                           std::span<const std::string> new_facts,
                           std::span<const VoteEdit> edits) const {
  Dataset out;
  out.sources_ = ExtendNames(sources_, new_sources);
  out.facts_ = ExtendNames(facts_, new_facts);
  const int32_t facts = out.num_facts();
  const int32_t sources = out.num_sources();

  std::vector<Change> by_fact;
  by_fact.reserve(edits.size());
  int64_t votes = num_votes_;
  for (size_t i = 0; i < edits.size(); ++i) {
    const VoteEdit& edit = edits[i];
    CORROB_CHECK(edit.fact >= 0 && edit.fact < facts && edit.source >= 0 &&
                 edit.source < sources)
        << "edit (fact " << edit.fact << ", source " << edit.source
        << ") out of range";
    CORROB_CHECK(i == 0 || std::pair(edits[i - 1].fact, edits[i - 1].source) <
                               std::pair(edit.fact, edit.source))
        << "edits must be sorted by unique (fact, source)";
    const Vote old = edit.fact < num_facts() ? GetVote(edit.source, edit.fact)
                                             : Vote::kNone;
    if (old == edit.vote) continue;
    const int32_t delta =
        (edit.vote != Vote::kNone ? 1 : 0) - (old != Vote::kNone ? 1 : 0);
    by_fact.push_back(Change{edit.fact, edit.source, edit.vote, delta});
    votes += delta;
  }
  std::vector<Change> by_source;
  by_source.reserve(by_fact.size());
  for (const Change& change : by_fact) {
    by_source.push_back(
        Change{change.col, change.row, change.vote, change.delta});
  }
  std::sort(by_source.begin(), by_source.end(),
            [](const Change& a, const Change& b) {
              return std::pair(a.row, a.col) < std::pair(b.row, b.col);
            });

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
  const FactId id = facts_.Add(name);
  if (id == static_cast<FactId>(votes_per_fact_.size())) {
    votes_per_fact_.emplace_back();
  }
  return id;
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
  auto& row = votes_per_fact_[f];
  auto it = std::find_if(row.begin(), row.end(),
                         [s](const SourceVote& sv) { return sv.source == s; });
  if (vote == Vote::kNone) {
    if (it != row.end()) row.erase(it);
    return Status::OK();
  }
  if (it != row.end()) {
    it->vote = vote;  // Last writer wins.
  } else {
    row.push_back(SourceVote{s, vote});
  }
  return Status::OK();
}

Vote DatasetBuilder::GetVote(SourceId s, FactId f) const {
  CORROB_CHECK(s >= 0 && s < num_sources()) << "source id out of range";
  CORROB_CHECK(f >= 0 && f < num_facts()) << "fact id out of range";
  for (const SourceVote& sv : votes_per_fact_[static_cast<size_t>(f)]) {
    if (sv.source == s) return sv.vote;
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
  Dataset out;
  out.sources_ = std::make_shared<const NameTable>(std::move(sources_));
  out.facts_ = std::make_shared<const NameTable>(std::move(facts_));
  sources_ = NameTable();
  facts_ = NameTable();

  const int32_t facts = out.num_facts();
  const int32_t sources = out.num_sources();

  out.fact_offsets_.assign(static_cast<size_t>(facts) + 1, 0);
  size_t total = 0;
  for (int32_t f = 0; f < facts; ++f) {
    auto& row = votes_per_fact_[f];
    std::sort(row.begin(), row.end(),
              [](const SourceVote& a, const SourceVote& b) {
                return a.source < b.source;
              });
    out.fact_offsets_[f] = total;
    total += row.size();
  }
  out.fact_offsets_[facts] = total;
  out.num_votes_ = static_cast<int64_t>(total);

  out.fact_votes_.reserve(total);
  std::vector<size_t> per_source_count(static_cast<size_t>(sources), 0);
  for (int32_t f = 0; f < facts; ++f) {
    for (const SourceVote& sv : votes_per_fact_[f]) {
      out.fact_votes_.push_back(sv);
      ++per_source_count[static_cast<size_t>(sv.source)];
    }
  }

  out.source_offsets_.assign(static_cast<size_t>(sources) + 1, 0);
  for (int32_t s = 0; s < sources; ++s) {
    out.source_offsets_[s + 1] = out.source_offsets_[s] + per_source_count[s];
  }
  out.source_votes_.resize(total);
  std::vector<size_t> cursor(out.source_offsets_.begin(),
                             out.source_offsets_.end() - 1);
  for (int32_t f = 0; f < facts; ++f) {
    for (const SourceVote& sv : votes_per_fact_[f]) {
      out.source_votes_[cursor[static_cast<size_t>(sv.source)]++] =
          FactVote{f, sv.vote};
    }
  }

  votes_per_fact_.clear();
  return out;
}

}  // namespace corrob
