#include "snapshot/snapshot_store.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "snapshot/plan_snapshot.hpp"
#include "support/assert.hpp"

namespace subdp::snapshot {

namespace {

namespace fs = std::filesystem;

/// Reads a whole file into `out`; false when it cannot be read.
[[nodiscard]] bool read_file(const std::string& path,
                             std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

}  // namespace

SnapshotStore::SnapshotStore(std::string directory)
    : directory_(std::move(directory)) {
  SUBDP_REQUIRE(!directory_.empty(), "SnapshotStore needs a directory");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  SUBDP_REQUIRE(!ec && fs::is_directory(directory_),
                "SnapshotStore could not create its directory");
  writer_thread_ = std::thread([this] { writer_loop(); });
}

SnapshotStore::~SnapshotStore() {
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    writer_stop_ = true;
  }
  writer_cv_.notify_all();
  writer_thread_.join();  // drains the queue first (see writer_loop)
}

std::string SnapshotStore::path_for(
    std::size_t n, const core::SublinearOptions& options) const {
  return (fs::path(directory_) / snapshot_file_name(n, options)).string();
}

std::shared_ptr<const core::SolvePlan> SnapshotStore::load(
    std::size_t n, const core::SublinearOptions& options) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path_for(n, options), bytes)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  try {
    auto plan = decode_plan(bytes.data(), bytes.size(), nullptr, n, options);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  } catch (...) {
    // Present but untrustworthy (truncated, corrupt, stale version,
    // foreign key): a miss — the caller rebuilds and the write-back
    // atomically replaces this file with good bytes.
    misses_.fetch_add(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

bool SnapshotStore::save(const std::shared_ptr<const core::SolvePlan>& plan) {
  SUBDP_REQUIRE(plan != nullptr, "SnapshotStore::save: null plan");
  const std::string final_path = path_for(plan->n(), plan->options());
  const std::string tmp_path = final_path + ".tmp";
  bool installed = false;
  try {
    const std::vector<std::uint8_t> bytes = encode_plan(*plan);
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (out) {
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
      }
      if (out) {
        // Validate the *on-disk* bytes end to end (size, key, checksum,
        // derived scalars) before the rename makes them reachable: a partial
        // or mangled write must never shadow a rebuildable shape.
        out.close();
        std::vector<std::uint8_t> check;
        if (read_file(tmp_path, check) && check == bytes) {
          (void)decode_plan(check.data(), check.size(), nullptr, plan->n(),
                            plan->options());  // throws on any defect
          std::error_code ec;
          fs::rename(tmp_path, final_path, ec);
          installed = !ec;
        }
      }
    }
  } catch (...) {
    installed = false;
  }
  if (installed) {
    writes_completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    write_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return installed;
}

void SnapshotStore::save_async(std::shared_ptr<const core::SolvePlan> plan) {
  SUBDP_REQUIRE(plan != nullptr, "SnapshotStore::save_async: null plan");
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    writer_queue_.push_back(std::move(plan));
  }
  writer_cv_.notify_one();
}

void SnapshotStore::flush() {
  std::unique_lock<std::mutex> lock(writer_mutex_);
  writer_idle_.wait(lock, [&] {
    return writer_queue_.empty() && writes_in_flight_ == 0;
  });
}

void SnapshotStore::writer_loop() {
  for (;;) {
    std::shared_ptr<const core::SolvePlan> plan;
    {
      std::unique_lock<std::mutex> lock(writer_mutex_);
      writer_cv_.wait(
          lock, [&] { return writer_stop_ || !writer_queue_.empty(); });
      if (writer_queue_.empty()) return;  // stopping, and fully drained
      plan = std::move(writer_queue_.front());
      writer_queue_.pop_front();
      ++writes_in_flight_;
    }
    (void)save(plan);  // failure already counted; nothing to propagate
    {
      const std::lock_guard<std::mutex> lock(writer_mutex_);
      --writes_in_flight_;
    }
    writer_idle_.notify_all();
  }
}

bool SnapshotStore::evict(std::size_t n,
                          const core::SublinearOptions& options) {
  std::error_code ec;
  return fs::remove(path_for(n, options), ec) && !ec;
}

std::vector<std::string> SnapshotStore::scan() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".snap") {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

std::vector<std::size_t> SnapshotStore::read_manifest() const {
  std::vector<std::size_t> shapes;
  std::ifstream in(fs::path(directory_) / kManifestFile);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream parse(line.substr(start));
    std::size_t n = 0;
    if (parse >> n && n >= 1) shapes.push_back(n);
  }
  return shapes;
}

void SnapshotStore::write_manifest(const std::vector<std::size_t>& shapes) {
  const fs::path final_path = fs::path(directory_) / kManifestFile;
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    SUBDP_REQUIRE(bool(out), "SnapshotStore could not write the manifest");
    out << "# subdp prewarm manifest: one instance size per line\n";
    for (const std::size_t n : shapes) out << n << "\n";
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  SUBDP_REQUIRE(!ec, "SnapshotStore could not install the manifest");
}

SnapshotStoreStats SnapshotStore::stats() const {
  SnapshotStoreStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.writes_completed = writes_completed_.load(std::memory_order_relaxed);
  out.write_failures = write_failures_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace subdp::snapshot
