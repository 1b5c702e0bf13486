#include "obs/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "rt/atomic_file.hpp"

namespace gnnbridge::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

void append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "gnnbridge_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) || c == '_' ? c : '_';
  }
  return out;
}

std::string render_prometheus(const RegistrySnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " ";
    append_number(out, value);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [le, count] : h.buckets) {
      cumulative += count;
      out += prom + "_bucket{le=\"";
      append_number(out, le);
      out += "\"} ";
      append_number(out, cumulative);
      out += '\n';
    }
    out += prom + "_bucket{le=\"+Inf\"} ";
    append_number(out, h.count);
    out += '\n';
    out += prom + "_sum ";
    append_number(out, h.sum);
    out += '\n';
    out += prom + "_count ";
    append_number(out, h.count);
    out += '\n';
  }
  return out;
}

rt::Status write_prometheus_file(const std::string& path, const RegistrySnapshot& snap) {
  rt::Status s = rt::write_file_atomic(path, render_prometheus(snap));
  if (s.ok()) return s;
  std::fprintf(stderr, "gnnbridge: cannot write prometheus file '%s': %s\n", path.c_str(),
               s.message().c_str());
  return std::move(s).with_context("write_prometheus_file('" + path + "')");
}

}  // namespace gnnbridge::obs
