#include "candgen/candidate_io.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/checksum_io.h"

namespace sans {
namespace {

Status CheckHeader(CrcFile* f, uint32_t expected_magic, uint64_t* count) {
  uint32_t magic = 0;
  uint32_t version = 0;
  SANS_RETURN_IF_ERROR(f->ReadScalar(&magic));
  if (magic != expected_magic) {
    return Status::Corruption("bad magic");
  }
  SANS_RETURN_IF_ERROR(f->ReadScalar(&version));
  if (version != kCandidateIoVersion) {
    return Status::Corruption("unsupported version");
  }
  return f->ReadScalar(count);
}

}  // namespace

Status WriteCandidateSet(const CandidateSet& candidates,
                         const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kCandidateFileMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kCandidateIoVersion));
  SANS_RETURN_IF_ERROR(
      f.WriteScalar(static_cast<uint64_t>(candidates.size())));
  for (const auto& [pair, count] : candidates.SortedEntries()) {
    SANS_RETURN_IF_ERROR(f.WriteScalar(pair.first));
    SANS_RETURN_IF_ERROR(f.WriteScalar(pair.second));
    SANS_RETURN_IF_ERROR(f.WriteScalar(count));
  }
  return f.WriteTrailer();
}

Result<CandidateSet> ReadCandidateSet(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  CrcFile f{file.get()};
  uint64_t count = 0;
  SANS_RETURN_IF_ERROR(CheckHeader(&f, kCandidateFileMagic, &count));
  std::vector<CandidateSet::Entry> entries;
  for (uint64_t i = 0; i < count; ++i) {
    CandidateSet::Entry entry;
    SANS_RETURN_IF_ERROR(f.ReadScalar(&entry.first.first));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&entry.first.second));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&entry.second));
    if (entry.first.first >= entry.first.second ||
        (!entries.empty() && !(entries.back().first < entry.first))) {
      return Status::Corruption("candidate pairs not strictly ascending");
    }
    entries.push_back(entry);
  }
  SANS_RETURN_IF_ERROR(f.VerifyTrailer("checkpoint artifact"));
  return CandidateSet(std::move(entries));
}

Status WriteSimilarPairs(const std::vector<SimilarPair>& pairs,
                         const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kPairsFileMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kCandidateIoVersion));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint64_t>(pairs.size())));
  for (const SimilarPair& p : pairs) {
    SANS_RETURN_IF_ERROR(f.WriteScalar(p.pair.first));
    SANS_RETURN_IF_ERROR(f.WriteScalar(p.pair.second));
    // Exact double bits, so a reloaded checkpoint reproduces the
    // clean-run output byte for byte.
    SANS_RETURN_IF_ERROR(f.WriteScalar(p.similarity));
  }
  return f.WriteTrailer();
}

Result<std::vector<SimilarPair>> ReadSimilarPairs(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  CrcFile f{file.get()};
  uint64_t count = 0;
  SANS_RETURN_IF_ERROR(CheckHeader(&f, kPairsFileMagic, &count));
  std::vector<SimilarPair> pairs;
  // A corrupted count must fail via the short read below, not via a
  // giant allocation here.
  pairs.reserve(static_cast<size_t>(std::min<uint64_t>(count, 1u << 20)));
  for (uint64_t i = 0; i < count; ++i) {
    SimilarPair p;
    SANS_RETURN_IF_ERROR(f.ReadScalar(&p.pair.first));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&p.pair.second));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&p.similarity));
    pairs.push_back(p);
  }
  SANS_RETURN_IF_ERROR(f.VerifyTrailer("checkpoint artifact"));
  return pairs;
}

}  // namespace sans
