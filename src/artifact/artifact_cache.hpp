// ArtifactCache — process-wide sharing of mmapped .sca artifacts.
//
// An ArtifactView is immutable and thread-safe, so every consumer in the
// process can share one mapping: the serve daemon's concurrent sessions and
// repeated Session::open() calls against the same file. (A TCP worker host
// maps its .sca once without the cache; its forked connection children
// inherit that PROT_READ mapping and simply share it.) The cache holds weak
// references only — an artifact lives exactly as long as someone uses it,
// and a dead entry costs one map-sized address range of nothing.
//
// Two keys point at each view: the path (the cheap exact-match lookup) and
// the fingerprint from the artifact header (so two paths to the SAME
// compiled circuit — a copy, a symlink farm, a re-written identical file —
// still share one mapping; fingerprint equality is the repo-wide identity
// contract, see src/netlist/compiled.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/artifact/compiled_artifact.hpp"

namespace sereep {

class ArtifactCache {
 public:
  /// The process-wide instance every loader path uses.
  static ArtifactCache& global();

  /// Returns the shared view of `path`, mapping and validating it only if no
  /// live view of the same path or fingerprint exists. Throws ArtifactError
  /// exactly like the ArtifactView constructor; a failed load caches
  /// nothing (a later call re-tries, e.g. after the file is rewritten).
  std::shared_ptr<const ArtifactView> load(const std::string& path);

  struct Stats {
    std::uint64_t hits = 0;    ///< served an already-live mapping
    std::uint64_t misses = 0;  ///< mapped and validated a file
  };
  [[nodiscard]] Stats stats() const;

 private:
  using Fingerprint = std::pair<std::uint64_t, std::uint64_t>;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::weak_ptr<const ArtifactView>>
      by_path_;
  std::map<Fingerprint, std::weak_ptr<const ArtifactView>> by_fingerprint_;
  Stats stats_;
};

}  // namespace sereep
