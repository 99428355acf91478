#include "plan/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace thrifty::plan {

namespace {

constexpr const char* kHeader = "# thrifty plan trace v1";

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error("plan trace: " + why);
}

/// Doubles are serialised in hexfloat so replayed observations compare
/// bit-exactly with the originals (decimal round-trips would not).
void write_double(std::ostream& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  out << buffer;
}

double parse_double(const std::string& text) {
  std::size_t consumed = 0;
  const double value = std::stod(text, &consumed);
  if (consumed != text.size()) malformed("bad number '" + text + "'");
  return value;
}

}  // namespace

void write_trace(std::ostream& out, const PlanTrace& trace) {
  out << kHeader << "\n";
  // The planner spec occupies the rest of the line (replay paths may
  // contain spaces); newlines cannot appear in a parsed spec.
  out << "planner " << trace.planner << "\n";
  out << "seed " << trace.seed << "\n";
  out << "vertices " << trace.num_vertices << "\n";
  out << "directed_edges " << trace.num_directed_edges << "\n";
  out << "steps " << trace.steps.size() << "\n";
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    const TraceStep& s = trace.steps[i];
    out << "step " << i << " " << to_string(s.step.kind)
        << " requested=" << to_string(s.requested)
        << " active_vertices=" << s.active_vertices
        << " active_edges=" << s.active_edges
        << " label_changes=" << s.label_changes;
    // Only async steps carry a publish count; older readers warn-skip
    // the attribute (the executed kind is all replay strictly needs).
    if (s.step.kind == StepKind::kAsync || s.publishes != 0) {
      out << " publishes=" << s.publishes;
    }
    out << " density=";
    write_double(out, s.density);
    out << " giant=";
    write_double(out, s.giant_fraction);
    out << "\n";
  }
}

void write_trace_file(const std::string& path, const PlanTrace& trace) {
  std::ofstream out(path);
  if (!out) malformed("cannot open '" + path + "' for writing");
  write_trace(out, trace);
  out.flush();
  if (!out) malformed("write to '" + path + "' failed");
}

PlanTrace read_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    malformed("missing '" + std::string(kHeader) + "' header");
  }
  PlanTrace trace;
  std::uint64_t declared_steps = 0;
  bool have_steps = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "planner") {
      trace.planner = value;
    } else if (key == "seed") {
      trace.seed = std::stoull(value);
    } else if (key == "vertices") {
      trace.num_vertices = static_cast<graph::VertexId>(std::stoul(value));
    } else if (key == "directed_edges") {
      trace.num_directed_edges = std::stoull(value);
    } else if (key == "steps") {
      declared_steps = std::stoull(value);
      have_steps = true;
    } else if (key == "step") {
      std::istringstream fields(value);
      std::uint64_t index = 0;
      std::string kind_text;
      if (!(fields >> index >> kind_text)) {
        malformed("bad step line '" + line + "'");
      }
      if (index != trace.steps.size()) {
        malformed("step index " + std::to_string(index) +
                  " out of order (expected " +
                  std::to_string(trace.steps.size()) + ")");
      }
      TraceStep step;
      const auto kind = parse_step_kind(kind_text);
      if (!kind) malformed("unknown step kind '" + kind_text + "'");
      step.step.kind = *kind;
      step.requested = *kind;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          malformed("bad step attribute '" + attr + "'");
        }
        const std::string name = attr.substr(0, eq);
        const std::string val = attr.substr(eq + 1);
        if (name == "requested") {
          const auto requested = parse_step_kind(val);
          if (!requested) malformed("unknown step kind '" + val + "'");
          step.requested = *requested;
        } else if (name == "active_vertices") {
          step.active_vertices = std::stoull(val);
        } else if (name == "active_edges") {
          step.active_edges = std::stoull(val);
        } else if (name == "label_changes") {
          step.label_changes = std::stoull(val);
        } else if (name == "publishes") {
          step.publishes = std::stoull(val);
        } else if (name == "density") {
          step.density = parse_double(val);
        } else if (name == "giant") {
          step.giant_fraction = parse_double(val);
        } else {
          // Forward compatibility: newer writers may record attributes
          // this reader does not know (and older ones wrote hub_split=
          // and simd=); the executed kind above is all replay needs.
          std::fprintf(stderr,
                       "plan trace: skipping unknown step attribute '%s' "
                       "(written by a newer version?)\n",
                       name.c_str());
        }
      }
      trace.steps.push_back(step);
    } else {
      std::fprintf(stderr,
                   "plan trace: skipping unknown key '%s' "
                   "(written by a newer version?)\n",
                   key.c_str());
    }
  }
  if (!have_steps) malformed("missing 'steps' count");
  if (trace.steps.size() != declared_steps) {
    malformed("declared " + std::to_string(declared_steps) +
              " steps but found " + std::to_string(trace.steps.size()));
  }
  return trace;
}

PlanTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) malformed("cannot open '" + path + "'");
  return read_trace(in);
}

}  // namespace thrifty::plan
