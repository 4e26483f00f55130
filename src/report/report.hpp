// Reliability report generation.
//
// Bundles the full analysis flow (structure → signal probability → EPP →
// SER → hardening recommendation → optional Monte-Carlo validation) into a
// single markdown document — the artifact a reliability sign-off flow would
// attach to a design review.
#pragma once

#include <cstddef>
#include <string>

namespace sereep {

class Session;

/// Report configuration.
struct ReportOptions {
  std::size_t top_nodes = 20;          ///< ranking rows to include
  double hardening_target = 0.5;       ///< SER reduction target for the plan
  bool validate_with_simulation = false;  ///< add an EPP-vs-MC section
  std::size_t validation_sites = 40;
  std::size_t validation_vectors = 16384;
};

/// Renders the markdown report from a Session — one compiled view, one SP
/// pass, one sweep shared with everything else the session already built.
/// The SP source is the Session's own (Options::sp.source).
[[nodiscard]] std::string generate_report(Session& session,
                                          const ReportOptions& options = {});

}  // namespace sereep
