// Span recorder: name, start, end, parent span and request id, kept in
// memory and written out as JSON when the run ends.

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

namespace {

struct Span {
  const char* name;
  double start;
  double end;
  int64_t parent;
  uint64_t request;
};

bool g_enabled = false;
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex
thread_local int64_t t_current = -1;

}  // namespace

void Trace::Enable() { g_enabled = true; }

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!g_enabled) return;
  const double start = Now();
  std::lock_guard<std::mutex> lock(g_mutex);
  index_ = static_cast<int64_t>(g_spans.size());
  g_spans.push_back({name, start, 0.0, t_current, request});
  t_current = index_;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<size_t>(index_)].end = end;
  t_current = g_spans[static_cast<size_t>(index_)].parent;
}

void Trace::WriteJson(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fputs("[\n", out);
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(out,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 i == 0 ? "" : ",", i, s.name, s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]\n", out);
  std::fclose(out);
}

}  // namespace perfbench
