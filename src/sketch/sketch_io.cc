#include "sketch/sketch_io.h"

#include <climits>
#include <vector>

namespace sans {

Status WriteSignatureMatrix(const SignatureMatrix& signatures,
                            const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactWriter out,
                        ArtifactWriter::Create(path, kSignatureFileFormat));
  SANS_RETURN_IF_ERROR(
      out.WriteScalar(static_cast<uint32_t>(signatures.num_hashes())));
  SANS_RETURN_IF_ERROR(out.WriteScalar(signatures.num_cols()));
  for (int l = 0; l < signatures.num_hashes(); ++l) {
    const auto row = signatures.HashRow(l);
    SANS_RETURN_IF_ERROR(out.Write(row.data(), row.size() * sizeof(uint64_t)));
  }
  return out.Finish();
}

Result<SignatureMatrix> ReadSignatureMatrix(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactReader in,
                        ArtifactReader::Open(path, kSignatureFileFormat));
  uint32_t k = 0;
  uint32_t m = 0;
  SANS_RETURN_IF_ERROR(in.ReadScalar(&k));
  SANS_RETURN_IF_ERROR(in.ReadScalar(&m));
  if (k == 0 || k > INT_MAX) {
    return Status::Corruption("signature file hash count out of range");
  }
  SANS_RETURN_IF_ERROR(in.CheckCount(uint64_t{k} * m, sizeof(uint64_t)));
  SignatureMatrix signatures(static_cast<int>(k), m);
  for (int l = 0; m > 0 && l < signatures.num_hashes(); ++l) {
    const auto row = signatures.MutableHashRow(l);
    SANS_RETURN_IF_ERROR(in.Read(row.data(), row.size() * sizeof(uint64_t)));
  }
  SANS_RETURN_IF_ERROR(in.Finish());
  return signatures;
}

Status WriteSketchColumns(const KMinHashSketch& sketch, ArtifactWriter* out) {
  for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
    const auto sig = sketch.Signature(c);
    SANS_RETURN_IF_ERROR(out->WriteScalar(sketch.ColumnCardinality(c)));
    SANS_RETURN_IF_ERROR(out->WriteScalar(static_cast<uint32_t>(sig.size())));
    SANS_RETURN_IF_ERROR(out->Write(sig.data(), sig.size() * sizeof(uint64_t)));
  }
  return Status::OK();
}

Result<KMinHashSketch> ReadSketchColumns(ArtifactReader* in, uint32_t k,
                                         uint32_t num_cols) {
  if (k == 0 || k > static_cast<uint32_t>(kMaxSketchK)) {
    return Status::Corruption("sketch k out of range");
  }
  // A column is at least its cardinality and size fields.
  SANS_RETURN_IF_ERROR(
      in->CheckCount(num_cols, sizeof(uint64_t) + sizeof(uint32_t)));
  KMinHashSketch sketch(static_cast<int>(k), num_cols);
  std::vector<uint64_t> signature;
  for (ColumnId c = 0; c < num_cols; ++c) {
    uint64_t cardinality = 0;
    uint32_t size = 0;
    SANS_RETURN_IF_ERROR(in->ReadScalar(&cardinality));
    SANS_RETURN_IF_ERROR(in->ReadScalar(&size));
    SANS_RETURN_IF_ERROR(in->CheckCount(size, sizeof(uint64_t)));
    signature.resize(size);
    SANS_RETURN_IF_ERROR(
        in->Read(signature.data(), signature.size() * sizeof(uint64_t)));
    if (const Status s = sketch.SetColumn(c, signature, cardinality);
        !s.ok()) {
      return Status::Corruption("sketch column " + std::to_string(c) + ": " +
                                s.message());
    }
  }
  return sketch;
}

Status WriteKMinHashSketch(const KMinHashSketch& sketch,
                           const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactWriter out,
                        ArtifactWriter::Create(path, kSketchFileFormat));
  SANS_RETURN_IF_ERROR(out.WriteScalar(static_cast<uint32_t>(sketch.k())));
  SANS_RETURN_IF_ERROR(out.WriteScalar(sketch.num_cols()));
  SANS_RETURN_IF_ERROR(WriteSketchColumns(sketch, &out));
  return out.Finish();
}

Result<KMinHashSketch> ReadKMinHashSketch(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactReader in,
                        ArtifactReader::Open(path, kSketchFileFormat));
  uint32_t k = 0;
  uint32_t m = 0;
  SANS_RETURN_IF_ERROR(in.ReadScalar(&k));
  SANS_RETURN_IF_ERROR(in.ReadScalar(&m));
  SANS_ASSIGN_OR_RETURN(KMinHashSketch sketch, ReadSketchColumns(&in, k, m));
  SANS_RETURN_IF_ERROR(in.Finish());
  return sketch;
}

}  // namespace sans
