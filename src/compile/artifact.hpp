#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/proof_capture.hpp"
#include "core/protocol.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "f2/bit_vec.hpp"

namespace ftsp::compile {

/// Where an artifact's protocol came from: enough to reproduce the
/// synthesis run and to audit a served protocol back to its solver
/// configuration. Stored verbatim in the artifact's Provenance section.
struct SynthProvenance {
  /// Canonical fingerprint of the verification-synthesis engine (the
  /// representative SAT configuration; see `sat::EngineOptions`).
  std::string engine_fingerprint;
  /// SAT engine invocations attributable to this compile (0 when every
  /// synthesis query was served from a warm cache/store).
  std::uint64_t solver_invocations = 0;
  /// Synthesis-cache hits/misses attributable to this compile.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// End-to-end compile wall time, seconds.
  double wall_seconds = 0.0;
  /// Synthesis bounds actually achieved (provenance of optimality).
  std::uint32_t prep_cnots = 0;
  std::uint32_t verification_measurements = 0;
  std::uint32_t branch_count = 0;
  /// Unix seconds of the compile; 0 when unknown.
  std::uint64_t compiled_at_unix = 0;
  /// The SAT-optimal preparation search was requested but gave up, and
  /// the served circuit is the heuristic fallback (never set under a
  /// constrained coupling map — there the exhausted search throws).
  /// Encoded as a trailing byte: artifacts written before this field
  /// decode as false, and older readers ignore the extra byte.
  bool prep_fallback = false;
};

/// A self-contained, servable deterministic FT-preparation protocol: the
/// compiled protocol itself plus everything a serving process needs to
/// start sampling without recomputation — lookup-decoder tables (skips
/// the weight-BFS), the frame-batch layout (skips the per-segment gate
/// walk and sizes the batches), and the synthesis provenance.
struct ProtocolArtifact {
  /// Canonical store key (see `artifact_key`).
  std::string key;
  core::Protocol protocol;
  std::vector<f2::BitVec> x_decoder_table;
  std::vector<f2::BitVec> z_decoder_table;
  core::FrameBatchLayout layout;
  SynthProvenance provenance;
  /// The device coupling map the protocol was compiled for; null means
  /// all-to-all (also what legacy artifacts without the Coupling section
  /// decode to). Persisted as its own optional `.ftsa` section together
  /// with the gadget reach (see `qec::CouplingSpec::gadget_reach`).
  std::shared_ptr<const qec::CouplingMap> coupling;
  std::uint32_t gadget_reach = 0;
  /// Optimality-proof entries captured during the compile (one per SAT
  /// sweep stage; see `core::CapturedProof`). Empty for artifacts
  /// compiled without proof capture and for legacy files (no Proof
  /// section). The `.ftsa` container stores only the metadata
  /// (claims, sizes, CRC fingerprints, checker verdicts); the premise
  /// and DRAT bytes travel in a `.proof` sidecar written by
  /// `ArtifactStore::put` and read back only on demand by
  /// `ArtifactStore::load_proofs` (for an audit) — a decoded artifact,
  /// including every `ArtifactStore::get` result, has `present` entries
  /// whose byte fields are empty until then.
  std::vector<core::CapturedProof> proofs;
};

/// Canonical store key of a compile request: check matrices, basis and
/// every synthesis option that can change the compiled protocol. Two
/// requests with equal keys produce interchangeable artifacts.
std::string artifact_key(const qec::CssCode& code, qec::LogicalBasis basis,
                         const core::SynthesisOptions& options);

/// End-to-end protocol compilation: SAT synthesis (through the process
/// `SynthCache`, so attached stores and warm caches short-circuit it),
/// decoder-table construction, layout precomputation, provenance
/// capture. This is the *offline* half of the compile/serve split — run
/// it once per code, persist the artifact, and serving processes never
/// touch a solver.
class ProtocolCompiler {
 public:
  explicit ProtocolCompiler(core::SynthesisOptions options = {})
      : options_(std::move(options)) {}

  const core::SynthesisOptions& options() const { return options_; }

  ProtocolArtifact compile(const qec::CssCode& code,
                           qec::LogicalBasis basis =
                               qec::LogicalBasis::Zero) const;

  /// Wraps an already-synthesized protocol (tests, migrations) with
  /// freshly computed tables/layout and the given provenance.
  ProtocolArtifact package(core::Protocol protocol,
                           SynthProvenance provenance = {}) const;

 private:
  core::SynthesisOptions options_;
};

/// Artifact <-> container bytes (see `format.hpp` for the container and
/// `format.md` for the byte-level spec). `decode_artifact` verifies CRCs
/// and decoder-table consistency; unknown sections are skipped.
std::string encode_artifact(const ProtocolArtifact& artifact);
ProtocolArtifact decode_artifact(std::string_view bytes);

/// Proof-bytes sidecar codec (`<keyhash>.proof` next to the `.ftsa`).
/// `write_proof_sidecar` streams the premise/DRAT bytes of every
/// `present` proof entry to `out`, in artifact order. Call it only when
/// `has_proof_bytes` holds: a metadata-only artifact (e.g. one decoded
/// without its sidecar) has no sidecar, and must not clobber an existing
/// good one with an empty one. `rehydrate_proof_bytes` restores the
/// bytes into matching entries, verifying stage names, sizes and CRCs as
/// it goes; a torn or mismatched sidecar degrades to entries with empty
/// bytes (which the audit flags) instead of failing the load.
bool has_proof_bytes(const ProtocolArtifact& artifact);
void write_proof_sidecar(const ProtocolArtifact& artifact, std::ostream& out);
void rehydrate_proof_bytes(ProtocolArtifact& artifact,
                           std::string_view sidecar_bytes);

/// Rehydrates the perfect decoder from the artifact's stored tables —
/// no weight-BFS enumeration. The returned decoder references
/// `artifact.protocol.code`; the artifact must outlive it.
decoder::PerfectDecoder make_artifact_decoder(
    const ProtocolArtifact& artifact);

}  // namespace ftsp::compile
