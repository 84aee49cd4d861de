// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself around its calls into each
// module's public functions (name, start, end, parent span, run id), kept
// in a vector, and written out once at exit. When disabled a scope reads
// no clock and records nothing, so untraced repetitions pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  struct Span {
    const char* name;  ///< string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 at top level
    int run;     ///< repetition the span belongs to
  };

  /// RAII span. Inert when the recorder is disabled.
  class Scope {
   public:
    Scope(Spans* owner, const char* name) : owner_(owner) {
      if (!owner_) return;
      index_ = static_cast<int>(owner_->spans_.size());
      owner_->spans_.push_back(
          Span{name, now_ns(), 0, owner_->open_, owner_->run_});
      owner_->open_ = index_;
    }
    ~Scope() {
      if (!owner_) return;
      Span& span = owner_->spans_[static_cast<std::size_t>(index_)];
      span.end_ns = now_ns();
      owner_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  Scope scope(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }

  /// Duration of every span called `name`, in milliseconds.
  std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) out.push_back(ms(s));
    return out;
  }

  /// Summed duration of the spans called `name`, one total per run that
  /// has any (milliseconds).
  std::vector<double> per_run_totals_ms(const char* name) const {
    std::vector<double> out;
    int last_run = -1;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (s.run != last_run) {
        out.push_back(0.0);
        last_run = s.run;
      }
      out.back() += ms(s);
    }
    return out;
  }

  /// JSON array of spans, one object per line.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"run\":%d}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  static double ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  bool enabled_ = false;
  int run_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
