#include "compile/artifact.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ostream>
#include <tuple>
#include <utility>

#include "compile/format.hpp"
#include "core/serialize.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/binio.hpp"

namespace ftsp::compile {

namespace {

std::string encode_layout(const core::FrameBatchLayout& layout) {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(layout.segments.size()));
  for (const auto& seg : layout.segments) {
    out.u32(seg.num_qubits);
    out.u32(seg.num_cbits);
    for (const std::uint32_t count : seg.site_counts) {
      out.u32(count);
    }
  }
  out.u32(layout.peak_qubits);
  out.u32(layout.peak_cbits);
  return out.take();
}

core::FrameBatchLayout decode_layout(std::string_view bytes) {
  util::ByteReader in(bytes);
  core::FrameBatchLayout layout;
  const std::uint32_t count = in.u32();
  // Each segment occupies 24 payload bytes; bounding the reserve by the
  // bytes actually present keeps a crafted count from forcing a huge
  // allocation before the truncation check can fire.
  if (count > in.remaining() / 24) {
    throw ArtifactFormatError("artifact: layout segment count exceeds data");
  }
  layout.segments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::FrameBatchLayout::Segment seg;
    seg.num_qubits = in.u32();
    seg.num_cbits = in.u32();
    for (std::uint32_t& kind_count : seg.site_counts) {
      kind_count = in.u32();
    }
    layout.segments.push_back(seg);
  }
  layout.peak_qubits = in.u32();
  layout.peak_cbits = in.u32();
  return layout;
}

std::string encode_provenance(const SynthProvenance& p) {
  util::ByteWriter out;
  out.str(p.engine_fingerprint);
  out.u64(p.solver_invocations);
  out.u64(p.cache_hits);
  out.u64(p.cache_misses);
  out.f64(p.wall_seconds);
  out.u32(p.prep_cnots);
  out.u32(p.verification_measurements);
  out.u32(p.branch_count);
  out.u64(p.compiled_at_unix);
  // Trailing optional fields: older readers stop above and ignore the
  // rest; newer readers consume them while remaining() > 0.
  out.u8(p.prep_fallback ? 1 : 0);
  return out.take();
}

SynthProvenance decode_provenance(std::string_view bytes) {
  util::ByteReader in(bytes);
  SynthProvenance p;
  p.engine_fingerprint = in.str();
  p.solver_invocations = in.u64();
  p.cache_hits = in.u64();
  p.cache_misses = in.u64();
  p.wall_seconds = in.f64();
  p.prep_cnots = in.u32();
  p.verification_measurements = in.u32();
  p.branch_count = in.u32();
  p.compiled_at_unix = in.u64();
  if (in.remaining() > 0) {
    p.prep_fallback = in.u8() != 0;
  }
  return p;
}

std::string encode_coupling(const qec::CouplingMap& map,
                            std::uint32_t gadget_reach) {
  util::ByteWriter out;
  out.str(map.name());
  out.u32(static_cast<std::uint32_t>(map.num_sites()));
  out.u32(gadget_reach);
  const auto edges = map.edges();
  out.u32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& [a, b] : edges) {
    out.u32(static_cast<std::uint32_t>(a));
    out.u32(static_cast<std::uint32_t>(b));
  }
  return out.take();
}

std::pair<std::shared_ptr<const qec::CouplingMap>, std::uint32_t>
decode_coupling(std::string_view bytes) {
  util::ByteReader in(bytes);
  const std::string name = in.str();
  const std::uint32_t sites = in.u32();
  // Same cap as the text parser (qec::read_coupling_map): adjacency is
  // a dense sites^2 bitset, and the CouplingMap must not be constructed
  // from a corrupt count before any size validation can run.
  if (sites == 0 || sites > 4096) {
    throw ArtifactFormatError("artifact: coupling site count " +
                              std::to_string(sites) + " out of range");
  }
  const std::uint32_t gadget_reach = in.u32();
  const std::uint32_t count = in.u32();
  // Each edge occupies 8 payload bytes; bound the reserve by the bytes
  // actually present (same crafted-count guard as the layout codec).
  if (count > in.remaining() / 8) {
    throw ArtifactFormatError("artifact: coupling edge count exceeds data");
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  edges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t a = in.u32();
    const std::size_t b = in.u32();
    edges.emplace_back(a, b);
  }
  // from_edges re-validates ranges/self-loops (fail loud on corruption
  // that happens to pass the CRC).
  return {std::make_shared<const qec::CouplingMap>(
              qec::CouplingMap::from_edges(name, sites, edges)),
          gadget_reach};
}

/// Proof section payload: metadata only — claims, sizes, CRC
/// fingerprints and checker verdicts. The premise/DRAT bytes live in the
/// store's `.proof` sidecar (see `write_proof_sidecar`), keeping the
/// container small and the serve path free of megabyte proof blobs.
std::string encode_proofs(const std::vector<core::CapturedProof>& proofs) {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(proofs.size()));
  for (const auto& p : proofs) {
    out.str(p.stage);
    out.str(p.claim);
    out.u32(p.bound);
    out.u8(static_cast<std::uint8_t>((p.present ? 1U : 0U) |
                                     (p.checked ? 2U : 0U)));
    out.str(p.absent_reason);
    out.u64(p.premise_size);
    out.u32(p.premise_crc);
    out.u64(p.drat_size);
    out.u32(p.drat_crc);
  }
  return out.take();
}

std::vector<core::CapturedProof> decode_proofs(std::string_view bytes) {
  util::ByteReader in(bytes);
  const std::uint32_t count = in.u32();
  // Each entry occupies >= 41 payload bytes (three length-prefixed
  // strings plus the fixed fields); bound the reserve by the bytes
  // actually present (same crafted-count guard as the other codecs).
  if (count > in.remaining() / 41) {
    throw ArtifactFormatError("artifact: proof entry count exceeds data");
  }
  std::vector<core::CapturedProof> proofs;
  proofs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::CapturedProof p;
    p.stage = in.str();
    p.claim = in.str();
    p.bound = in.u32();
    const std::uint8_t flags = in.u8();
    p.present = (flags & 1U) != 0;
    p.checked = (flags & 2U) != 0;
    p.absent_reason = in.str();
    p.premise_size = in.u64();
    p.premise_crc = in.u32();
    p.drat_size = in.u64();
    p.drat_crc = in.u32();
    proofs.push_back(std::move(p));
  }
  return proofs;
}

}  // namespace

std::string artifact_key(const qec::CssCode& code, qec::LogicalBasis basis,
                         const core::SynthesisOptions& options) {
  std::string key = "ftsa|v1";
  key += "|code=" + code.name();
  key += "|basis=";
  key += basis == qec::LogicalBasis::Zero ? "Zero" : "Plus";
  key += "|HX=" + core::cache_key_matrix(code.hx());
  key += "|HZ=" + core::cache_key_matrix(code.hz());
  key += "|flags=";
  key += options.flag_policy == core::FlagPolicy::FlagDangerous ? "D" : "L";
  key += "|oopt=";
  key += options.optimize_measurement_order
             ? std::to_string(options.order_search_tries)
             : "0";
  key += "|prep=";
  if (options.prep.method == core::PrepSynthOptions::Method::Heuristic) {
    key += "H";
    key += std::to_string(options.prep.shuffle_tries);
    key += ".";
    key += std::to_string(options.prep.seed);
  } else {
    key += "O";
    key += std::to_string(options.prep.max_cnots);
  }
  key += "|vmax=" + std::to_string(options.verification.max_measurements);
  key += "|cmax=" + std::to_string(options.correction.max_measurements);
  key += "|eng=" + options.verification.engine.fingerprint();
  // Device targeting: the all-to-all spec contributes nothing, keeping
  // unconstrained keys byte-identical to pre-coupling builds (legacy
  // stores stay warm); any constrained map appends its structure
  // fingerprint, so device-specific artifacts never alias.
  key += options.coupling.key_fragment(code.num_qubits());
  return key;
}

ProtocolArtifact ProtocolCompiler::compile(const qec::CssCode& code,
                                           qec::LogicalBasis basis) const {
  const obs::TraceSpan compile_span("compile.protocol");
  const obs::ScopedTimer compile_timer(
      obs::Registry::instance().histogram("compile.total.duration_us"));
  static obs::Counter& compiles =
      obs::Registry::instance().counter("compile.protocol.count");
  compiles.add(1);
  auto& cache = core::SynthCache::instance();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();
  const std::uint64_t solver0 = sat::engine_solver_invocations();
  const auto t0 = std::chrono::steady_clock::now();

  // A silent SAT-prep fallback must end up in the provenance, so attach
  // a report sink to this compile's options copy.
  core::PrepSynthReport prep_report;
  core::SynthesisOptions options = options_;
  options.prep.report = &prep_report;
  // Proof-carrying compile: when requested and the caller brought no
  // sink of their own, capture into an internal one; either way the
  // entries recorded by *this* compile end up in the artifact.
  core::ProofSink internal_sink;
  if (options_.capture_proofs && options.proof_sink == nullptr) {
    options.proof_sink = &internal_sink;
  }
  const std::size_t proofs_before =
      options.proof_sink != nullptr ? options.proof_sink->proofs.size() : 0;
  core::Protocol protocol = core::synthesize_protocol(code, basis, options);

  SynthProvenance provenance;
  provenance.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  provenance.solver_invocations = sat::engine_solver_invocations() - solver0;
  provenance.cache_hits = cache.hits() - hits0;
  provenance.cache_misses = cache.misses() - misses0;
  provenance.prep_fallback = prep_report.heuristic_fallback;
  ProtocolArtifact artifact =
      package(std::move(protocol), std::move(provenance));
  if (options_.capture_proofs && options.proof_sink != nullptr) {
    auto& captured = options.proof_sink->proofs;
    const auto from =
        captured.begin() + static_cast<std::ptrdiff_t>(proofs_before);
    if (options.proof_sink == &internal_sink) {
      artifact.proofs.assign(std::make_move_iterator(from),
                             std::make_move_iterator(captured.end()));
    } else {
      // The caller keeps their sink intact; the artifact gets a copy of
      // the entries this compile recorded.
      artifact.proofs.assign(from, captured.end());
    }
  }
  return artifact;
}

ProtocolArtifact ProtocolCompiler::package(core::Protocol protocol,
                                           SynthProvenance provenance) const {
  ProtocolArtifact artifact;
  artifact.key = artifact_key(*protocol.code, protocol.basis, options_);
  artifact.coupling =
      options_.coupling.resolve(protocol.code->num_qubits());
  artifact.gadget_reach = artifact.coupling != nullptr
                              ? static_cast<std::uint32_t>(
                                    options_.coupling.gadget_reach)
                              : 0;
  {
    const obs::TraceSpan span("compile.decoder_tables");
    const obs::ScopedTimer timer(obs::Registry::instance().histogram(
        obs::labeled("compile.stage.duration_us", "stage", "decoder_tables")));
    artifact.x_decoder_table =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::X).table();
    artifact.z_decoder_table =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::Z).table();
  }
  artifact.layout = core::compute_frame_batch_layout(protocol);

  provenance.engine_fingerprint =
      options_.verification.engine.fingerprint();
  provenance.prep_cnots =
      static_cast<std::uint32_t>(protocol.prep.cnot_count());
  std::uint32_t verif = 0;
  std::uint32_t branches = 0;
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (layer->has_value()) {
      verif += static_cast<std::uint32_t>((*layer)->verification.count());
      branches += static_cast<std::uint32_t>((*layer)->branches.size());
    }
  }
  provenance.verification_measurements = verif;
  provenance.branch_count = branches;
  if (provenance.compiled_at_unix == 0) {
    // Provenance records when a compile happened; the section is
    // excluded from the bit-identity contract (callers pin
    // compiled_at_unix when they need reproducible bytes).
    // ftsp-lint: allow(det-wall-clock) provenance-only timestamp
    const auto now = std::chrono::system_clock::now();
    provenance.compiled_at_unix = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            now.time_since_epoch())
            .count());
  }
  artifact.provenance = std::move(provenance);
  artifact.protocol = std::move(protocol);
  return artifact;
}

std::string encode_artifact(const ProtocolArtifact& artifact) {
  std::vector<Section> sections;

  util::ByteWriter meta;
  meta.str(artifact.key);
  meta.str(artifact.protocol.code->name());
  meta.u8(artifact.protocol.basis == qec::LogicalBasis::Zero ? 0 : 1);
  sections.push_back(
      {static_cast<std::uint32_t>(SectionId::Meta), meta.take()});

  sections.push_back({static_cast<std::uint32_t>(SectionId::Protocol),
                      core::save_protocol_binary(artifact.protocol)});

  util::ByteWriter dx;
  core::encode_decoder_table(dx, qec::PauliType::X, artifact.x_decoder_table);
  sections.push_back(
      {static_cast<std::uint32_t>(SectionId::DecoderX), dx.take()});

  util::ByteWriter dz;
  core::encode_decoder_table(dz, qec::PauliType::Z, artifact.z_decoder_table);
  sections.push_back(
      {static_cast<std::uint32_t>(SectionId::DecoderZ), dz.take()});

  sections.push_back({static_cast<std::uint32_t>(SectionId::Layout),
                      encode_layout(artifact.layout)});
  sections.push_back({static_cast<std::uint32_t>(SectionId::Provenance),
                      encode_provenance(artifact.provenance)});
  if (qec::coupling_constrained(artifact.coupling)) {
    // All-to-all artifacts omit the section entirely, staying
    // byte-compatible with pre-coupling builds; readers treat the absent
    // section as all-to-all (see format.md).
    sections.push_back(
        {static_cast<std::uint32_t>(SectionId::Coupling),
         encode_coupling(*artifact.coupling, artifact.gadget_reach)});
  }
  if (!artifact.proofs.empty()) {
    // Optional like Coupling: proof-less compiles stay byte-identical to
    // pre-proof builds.
    sections.push_back({static_cast<std::uint32_t>(SectionId::Proof),
                        encode_proofs(artifact.proofs)});
  }
  return pack_container(sections);
}

ProtocolArtifact decode_artifact(std::string_view bytes) {
  const std::vector<Section> sections = unpack_container(bytes);
  ProtocolArtifact artifact;
  try {
    {
      util::ByteReader meta(find_section(sections, SectionId::Meta));
      artifact.key = meta.str();
      // Code name and basis are repeated in the protocol section; the
      // meta copy exists so index rebuilds don't need a full decode.
      (void)meta.str();
      (void)meta.u8();
    }
    artifact.protocol = core::load_protocol_binary(
        find_section(sections, SectionId::Protocol));
    {
      util::ByteReader in(find_section(sections, SectionId::DecoderX));
      artifact.x_decoder_table = core::decode_decoder_table(in);
    }
    {
      util::ByteReader in(find_section(sections, SectionId::DecoderZ));
      artifact.z_decoder_table = core::decode_decoder_table(in);
    }
    artifact.layout =
        decode_layout(find_section(sections, SectionId::Layout));
    artifact.provenance =
        decode_provenance(find_section(sections, SectionId::Provenance));
    for (const Section& section : sections) {
      // Optional sections: legacy artifacts simply do not have them —
      // coupling stays null (all-to-all), proofs stay empty.
      if (section.id == static_cast<std::uint32_t>(SectionId::Coupling)) {
        std::tie(artifact.coupling, artifact.gadget_reach) =
            decode_coupling(section.bytes);
        if (artifact.coupling->num_sites() !=
            artifact.protocol.code->num_qubits()) {
          throw ArtifactFormatError(
              "artifact: coupling map covers " +
              std::to_string(artifact.coupling->num_sites()) +
              " sites but the protocol has " +
              std::to_string(artifact.protocol.code->num_qubits()) +
              " data qubits");
        }
      } else if (section.id == static_cast<std::uint32_t>(SectionId::Proof)) {
        artifact.proofs = decode_proofs(section.bytes);
      }
    }
  } catch (const ArtifactFormatError&) {
    throw;
  } catch (const std::exception& e) {
    throw ArtifactFormatError(std::string("artifact: section decode: ") +
                              e.what());
  }
  return artifact;
}

namespace {
constexpr char kProofSidecarMagic[8] = {'F', 'T', 'S', 'P',
                                        'P', 'R', 'F', '\0'};
constexpr std::uint16_t kProofSidecarVersion = 1;

bool carries_bytes(const core::CapturedProof& p) {
  return p.present && (!p.premise_dimacs.empty() || !p.drat.empty());
}
}  // namespace

bool has_proof_bytes(const ProtocolArtifact& artifact) {
  return std::any_of(artifact.proofs.begin(), artifact.proofs.end(),
                     carries_bytes);
}

void write_proof_sidecar(const ProtocolArtifact& artifact,
                         std::ostream& out) {
  const auto put = [&out](const util::ByteWriter& bytes) {
    out.write(bytes.bytes().data(),
              static_cast<std::streamsize>(bytes.size()));
  };
  util::ByteWriter header;
  header.raw(
      std::string_view(kProofSidecarMagic, sizeof(kProofSidecarMagic)));
  header.u16(kProofSidecarVersion);
  header.u16(0);  // Reserved.
  header.u32(static_cast<std::uint32_t>(std::count_if(
      artifact.proofs.begin(), artifact.proofs.end(), carries_bytes)));
  put(header);
  // Present entries in artifact order — rehydration matches positionally
  // (stages repeat: one verification sweep records one entry per u).
  // The payloads go straight to `out`, so the sidecar is never held in
  // memory as a whole.
  for (const auto& p : artifact.proofs) {
    if (!carries_bytes(p)) {
      continue;
    }
    for (const std::string* field : {&p.stage, &p.premise_dimacs, &p.drat}) {
      util::ByteWriter length;
      length.u32(static_cast<std::uint32_t>(field->size()));
      put(length);
      out.write(field->data(), static_cast<std::streamsize>(field->size()));
    }
  }
}

void rehydrate_proof_bytes(ProtocolArtifact& artifact,
                           std::string_view sidecar_bytes) {
  try {
    util::ByteReader in(sidecar_bytes);
    const std::string_view magic = in.raw(sizeof(kProofSidecarMagic));
    if (magic !=
        std::string_view(kProofSidecarMagic, sizeof(kProofSidecarMagic))) {
      return;
    }
    if (in.u16() != kProofSidecarVersion) {
      return;
    }
    (void)in.u16();  // Reserved.
    std::uint32_t remaining_entries = in.u32();
    for (auto& p : artifact.proofs) {
      if (remaining_entries == 0) {
        break;
      }
      if (!p.present) {
        continue;
      }
      const std::string stage = in.str();
      std::string premise = std::string(in.str());
      std::string drat = std::string(in.str());
      --remaining_entries;
      // Every field must agree with the container's fingerprint; a
      // mismatched sidecar (stale, truncated, swapped) contributes
      // nothing — the audit then reports the entry as missing bytes.
      if (stage != p.stage || premise.size() != p.premise_size ||
          drat.size() != p.drat_size ||
          util::crc32(premise) != p.premise_crc ||
          util::crc32(drat) != p.drat_crc) {
        return;
      }
      p.premise_dimacs = std::move(premise);
      p.drat = std::move(drat);
    }
  } catch (const std::out_of_range&) {
    // Truncated sidecar: keep whatever rehydrated cleanly so far.
  }
}

decoder::PerfectDecoder make_artifact_decoder(
    const ProtocolArtifact& artifact) {
  return decoder::PerfectDecoder(*artifact.protocol.code,
                                 artifact.x_decoder_table,
                                 artifact.z_decoder_table);
}

}  // namespace ftsp::compile
