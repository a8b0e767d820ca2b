#include "tracer.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope Tracer::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), open_.empty() ? -1 : open_.back(),
                        Now(), 0.0});
  open_.push_back(id);
  return Scope(this, id);
}

void Tracer::End(int id) {
  spans_[id].end_s = Now();
  open_.pop_back();
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

double Tracer::SelfSeconds(size_t index) const {
  double self = spans_[index].seconds();
  for (size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(index)) {
      self -= spans_[i].seconds();
    }
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

sans::Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return sans::Status::IOError("cannot write trace " + path);
  }
  std::fprintf(file, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"parent\": %d, \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 span.name.c_str(), span.parent, span.start_s, span.end_s,
                 SelfSeconds(i), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]\n");
  if (std::fclose(file) != 0) {
    return sans::Status::IOError("cannot write trace " + path);
  }
  return sans::Status::OK();
}

}  // namespace perfbench
