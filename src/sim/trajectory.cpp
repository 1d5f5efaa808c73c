#include "sim/trajectory.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/assert.hpp"

namespace canb::sim {

void write_xyz_frame(std::ostream& os, const particles::Block& ps, const std::string& comment) {
  os << ps.size() << '\n';
  std::string clean = comment;
  for (auto& ch : clean) {
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  os << clean << '\n';
  for (const auto& p : ps) {
    os << "P " << p.px << ' ' << p.py << " 0\n";
  }
}

bool read_xyz_frame(std::istream& is, particles::Block& out, std::string* comment) {
  std::string line;
  // Skip blank lines between frames.
  do {
    if (!std::getline(is, line)) return false;
  } while (line.empty());
  std::size_t n = 0;
  try {
    n = static_cast<std::size_t>(std::stoull(line));
  } catch (const std::exception&) {
    CANB_REQUIRE(false, "XYZ frame header is not a particle count: " + line);
  }
  CANB_REQUIRE(std::getline(is, line), "XYZ frame truncated: missing comment line");
  if (comment) *comment = line;
  out.assign(n, particles::Particle{});
  for (std::size_t i = 0; i < n; ++i) {
    CANB_REQUIRE(std::getline(is, line), "XYZ frame truncated: missing atom line");
    std::istringstream ls(line);
    std::string element;
    double x = 0;
    double y = 0;
    double z = 0;
    CANB_REQUIRE(static_cast<bool>(ls >> element >> x >> y >> z),
                 "malformed XYZ atom line: " + line);
    auto& p = out[i];
    p.px = static_cast<float>(x);
    p.py = static_cast<float>(y);
    p.id = static_cast<int>(i);
  }
  return true;
}

struct TrajectoryWriter::Impl {
  std::ofstream file;
  std::string path;
};

TrajectoryWriter::TrajectoryWriter(const std::string& path, Format format)
    : impl_(new Impl), format_(format) {
  impl_->path = path;
  impl_->file.open(path);
  CANB_REQUIRE(impl_->file.good(), "cannot open trajectory file: " + path);
  if (format_ == Format::Csv) {
    impl_->file << "step,time,id,px,py,vx,vy,fx,fy,mass,charge\n";
  }
}

TrajectoryWriter::~TrajectoryWriter() { delete impl_; }

void TrajectoryWriter::append(const particles::Block& ps, int step, double time) {
  if (format_ == Format::Xyz) {
    std::ostringstream comment;
    comment << "step=" << step << " time=" << time;
    write_xyz_frame(impl_->file, ps, comment.str());
  } else {
    for (const auto& p : ps) {
      impl_->file << step << ',' << time << ',' << p.id << ',' << p.px << ',' << p.py << ','
                  << p.vx << ',' << p.vy << ',' << p.fx << ',' << p.fy << ',' << p.mass << ','
                  << p.charge << '\n';
    }
  }
  if (!impl_->file.flush())
    throw std::runtime_error("cannot write trajectory file: " + impl_->path);
  ++frames_;
}

}  // namespace canb::sim
