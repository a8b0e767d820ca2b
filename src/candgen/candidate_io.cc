#include "candgen/candidate_io.h"

#include <utility>

namespace sans {
namespace {

// Both bodies are a count of 16-byte entries.
constexpr uint64_t kEntryBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);

Status ReadCount(ArtifactReader* in, uint64_t* count) {
  SANS_RETURN_IF_ERROR(in->ReadScalar(count));
  return in->CheckCount(*count, kEntryBytes);
}

}  // namespace

Status WriteCandidateSet(const CandidateSet& candidates,
                         const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactWriter out,
                        ArtifactWriter::Create(path, kCandidateFileFormat));
  SANS_RETURN_IF_ERROR(
      out.WriteScalar(static_cast<uint64_t>(candidates.size())));
  for (const auto& [pair, count] : candidates.SortedEntries()) {
    SANS_RETURN_IF_ERROR(out.WriteScalar(pair.first));
    SANS_RETURN_IF_ERROR(out.WriteScalar(pair.second));
    SANS_RETURN_IF_ERROR(out.WriteScalar(count));
  }
  return out.Finish();
}

Result<CandidateSet> ReadCandidateSet(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactReader in,
                        ArtifactReader::Open(path, kCandidateFileFormat));
  uint64_t count = 0;
  SANS_RETURN_IF_ERROR(ReadCount(&in, &count));
  std::vector<CandidateSet::Entry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CandidateSet::Entry entry;
    SANS_RETURN_IF_ERROR(in.ReadScalar(&entry.first.first));
    SANS_RETURN_IF_ERROR(in.ReadScalar(&entry.first.second));
    SANS_RETURN_IF_ERROR(in.ReadScalar(&entry.second));
    if (entry.first.first >= entry.first.second ||
        (!entries.empty() && !(entries.back().first < entry.first))) {
      return Status::Corruption("candidate pairs not strictly ascending");
    }
    entries.push_back(entry);
  }
  SANS_RETURN_IF_ERROR(in.Finish());
  return CandidateSet(std::move(entries));
}

Status WriteSimilarPairs(const std::vector<SimilarPair>& pairs,
                         const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactWriter out,
                        ArtifactWriter::Create(path, kPairsFileFormat));
  SANS_RETURN_IF_ERROR(out.WriteScalar(static_cast<uint64_t>(pairs.size())));
  for (const SimilarPair& p : pairs) {
    SANS_RETURN_IF_ERROR(out.WriteScalar(p.pair.first));
    SANS_RETURN_IF_ERROR(out.WriteScalar(p.pair.second));
    // Exact double bits, so a reloaded checkpoint reproduces the
    // clean-run output byte for byte.
    SANS_RETURN_IF_ERROR(out.WriteScalar(p.similarity));
  }
  return out.Finish();
}

Result<std::vector<SimilarPair>> ReadSimilarPairs(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactReader in,
                        ArtifactReader::Open(path, kPairsFileFormat));
  uint64_t count = 0;
  SANS_RETURN_IF_ERROR(ReadCount(&in, &count));
  std::vector<SimilarPair> pairs(count);
  for (SimilarPair& p : pairs) {
    SANS_RETURN_IF_ERROR(in.ReadScalar(&p.pair.first));
    SANS_RETURN_IF_ERROR(in.ReadScalar(&p.pair.second));
    SANS_RETURN_IF_ERROR(in.ReadScalar(&p.similarity));
  }
  SANS_RETURN_IF_ERROR(in.Finish());
  return pairs;
}

}  // namespace sans
