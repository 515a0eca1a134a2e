// Cross-session attribution: the service-level memory that outlives
// sessions (the defense the PR 8 arms race showed was missing — the
// `spread` attacker held fidelity ~0.79 by rotating through ~287
// sessions that each stayed under the per-session detector warm-up).
//
// Three cooperating signals, all fed from the admission path:
//
//   1. **Per-source windows.** Sessions carry a SourceId admission
//      identity (SessionConfig::source). Screened/flagged/suspicious
//      counts accumulate per source and survive session close, so
//      rotating sessions no longer resets the defender's statistics —
//      and sessions of one source are auto-clustered into one campaign.
//
//   2. **Global probe-population window.** A sliding event-count window
//      over the whole deployment's screened traffic (flagged fraction
//      and suspicious-input-shape fraction). When it trips, the engine
//      raises a deployment-level alert no rotation cadence can duck
//      under: admission suspends per-session warm-up and escalates
//      suspicious queries per-query.
//
//   3. **Query-overlap campaign clustering.** Each session keeps a
//      bottom-k MinHash sketch over the content hashes of its
//      *suspicious-or-flagged* query rows (clean traffic never enters a
//      sketch, which is what keeps benign false-merges at zero). A
//      bounded inverted index maps those hashes to the campaign that
//      first issued them: a session replaying enough of another
//      campaign's probe set is union-found into it — so an attacker
//      forging a fresh SourceId per rotation still collapses into one
//      attributed campaign, whose pooled suspicion feeds AdaptivePolicy.
//
// The engine is pure bookkeeping over (session id, source, content
// hash, flags) — it holds no oracle or service references, takes no
// clocks (windows slide by event count, keeping admission decisions
// deterministic), and is internally synchronised. Enforcement (token
// buckets, band selection, raw cutoffs) stays in core::OracleService.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "xbarsec/attrib/sketch.hpp"

namespace xbarsec::attrib {

/// Admission identity of a session's principal (API key, account,
/// network principal — whatever the deployment authenticates). 0 means
/// anonymous: anonymous sessions get no per-source pooling and are never
/// clustered by identity (only by query overlap).
using SourceId = std::uint64_t;

/// Detection/clustering parameters. Defaults are the ones the
/// service/mnist/attribution scenario ships with.
struct EngineConfig {
    /// Global sliding window length, in screened rows (event count, not
    /// wall clock — admission decisions stay deterministic).
    std::size_t window_events = 4096;

    /// Deployment alert: trips when the window holds at least
    /// `alert_min_screened` rows and its flagged or suspicious fraction
    /// reaches the respective threshold. Latched while the window stays
    /// hot; clears when the window cools back below both thresholds.
    std::size_t alert_min_screened = 128;
    double alert_flagged_fraction = 0.25;
    double alert_suspicious_fraction = 0.25;

    /// Input-shape heuristics (service-wide probe-population statistics).
    /// A row is *suspicious* when its per-element magnitude exceeds
    /// `suspicious_amplitude` (clean inputs live in [0, 1]; extraction
    /// probes are driven harder for SNR and leverage), and *basis-like*
    /// when it has at most max(1, cols / basis_nnz_divisor) non-zeros
    /// (single-line power probes). Basis-likeness counts toward the
    /// alert window only — it never enters sketches or the index, so a
    /// sparse-but-clean tenant cannot be clustered into a campaign.
    double suspicious_amplitude = 1.5;
    std::size_t basis_nnz_divisor = 32;

    /// Campaign clustering. Sketches hold up to `sketch_k` hashes of
    /// suspicious-or-flagged rows. A session union-finds into a campaign
    /// when it has replayed `repeat_overlap` distinct indexed hashes of
    /// that campaign, or (at session close) when sketch similarity /
    /// containment reaches `merge_similarity` with both sketches holding
    /// at least `merge_min_hashes`.
    std::size_t sketch_k = 256;
    std::size_t repeat_overlap = 3;
    double merge_similarity = 0.5;
    std::size_t merge_min_hashes = 16;

    /// Bound on the inverted hash → campaign index (oldest-insertion
    /// entries are dropped beyond it; attribution degrades gracefully
    /// instead of growing without bound).
    std::size_t index_capacity = 1 << 16;

    /// Alert-time probation: a non-anonymous source whose *first* session
    /// opens while the deployment alert is active is marked, and
    /// probation(source) reports true for it whenever the alert is hot —
    /// the admission layer refuses such sources for the duration (a
    /// registration freeze under active attack, the rotation tax that
    /// makes forging a fresh SourceId per session useless). Sources
    /// established before the alert are never marked; anonymous sessions
    /// (source 0) are exempt and rely on per-query escalation and
    /// overlap clustering instead.
    bool probation = true;

    /// Identity-churn alert: minting a fresh SourceId per session is
    /// itself a fingerprint no per-query heuristic needs to see.
    /// Tracks the last `churn_window_opens` non-anonymous session opens;
    /// when at least `churn_fresh_sources` of them were some source's
    /// *first* session, the churn alert trips, and sources first seen
    /// from then on are put on probation exactly like alert-time
    /// probation (the two alerts OR together for both marking and
    /// enforcement). An identity-forging attacker rotating hundreds of
    /// fresh sources through a short campaign trips this within a
    /// handful of rotations — independent of whether its per-row traffic
    /// has tripped the detector window yet — while a benign deployment
    /// onboarding tenants at a sane pace never accumulates that many
    /// first-time sources inside the window. churn_fresh_sources = 0
    /// disables churn tracking.
    std::size_t churn_window_opens = 64;
    std::size_t churn_fresh_sources = 16;
};

/// One screened row, as the admission path saw it.
struct Observation {
    std::uint64_t session = 0;
    SourceId source = 0;
    std::uint64_t input_hash = 0;  ///< attrib::hash_row of the row
    bool flagged = false;          ///< the session's detector flagged it
    bool suspicious = false;       ///< amplitude heuristic (see EngineConfig)
    bool basis_like = false;       ///< sparsity heuristic (alert window only)
};

/// Both row heuristics of one row (see EngineConfig).
struct RowFlags {
    bool suspicious = false;  ///< AttributionEngine::suspicious_row
    bool basis_like = false;  ///< AttributionEngine::basis_like_row
};

/// What admission reads back from the engine about one submission: the
/// values of alert(), probation(source), pooled_screened(session) and
/// pooled_suspicion_fraction(session), taken together under one lock.
struct AdmissionView {
    bool alert = false;
    bool probation = false;
    std::uint64_t pooled_screened = 0;
    double pooled_suspicion = 0.0;
};

/// Telemetry: one source's cross-session window.
struct SourceCounters {
    SourceId source = 0;
    std::size_t sessions = 0;  ///< sessions opened under this source
    std::uint64_t screened = 0;
    std::uint64_t flagged = 0;
    std::uint64_t suspicious = 0;

    double flagged_fraction() const {
        return screened == 0 ? 0.0 : static_cast<double>(flagged) / static_cast<double>(screened);
    }
};

/// Telemetry: one campaign (union-find cluster of sessions).
struct CampaignCounters {
    std::uint64_t id = 0;       ///< current cluster root (a session id)
    std::size_t sessions = 0;   ///< cluster size
    std::size_t sources = 0;    ///< distinct non-anonymous sources inside
    std::uint64_t screened = 0;
    std::uint64_t flagged = 0;
    std::uint64_t suspicious = 0;
    std::size_t sketch_hashes = 0;  ///< merged campaign sketch population

    double flagged_fraction() const {
        return screened == 0 ? 0.0 : static_cast<double>(flagged) / static_cast<double>(screened);
    }
};

/// The attribution state machine. Thread-safe; every entry point takes
/// one internal mutex (admission already serialises per submission, and
/// the work per row is a few hash-map touches).
class AttributionEngine {
public:
    explicit AttributionEngine(EngineConfig config = {});

    const EngineConfig& config() const { return config_; }

    /// Session lifecycle. Opening under a non-zero source auto-clusters
    /// the session with that source's previous sessions. Closing runs
    /// the sketch-similarity merge pass and keeps all statistics (that
    /// is the point: the window survives the session).
    void note_session_open(std::uint64_t session, SourceId source);
    void note_session_close(std::uint64_t session);

    /// Feeds one screened row. Unknown sessions are adopted on first
    /// observation (an engine wired mid-flight still attributes).
    void observe(const Observation& obs);

    /// Feeds one submission's screened rows in order, then reads back
    /// admission_view(session, source), all under one lock: the same
    /// state and the same values as observe() on each row followed by
    /// alert(), probation(source), pooled_screened(session) and
    /// pooled_suspicion_fraction(session). Admission calls this once
    /// per submission instead of making those calls one by one.
    AdmissionView observe_unit(std::span<const Observation> rows, std::uint64_t session,
                               SourceId source);

    /// The figures observe_unit returns, read without observing.
    AdmissionView admission_view(std::uint64_t session, SourceId source) const;

    /// Pooled (campaign-level) suspicion for admission: the screened /
    /// flagged window of the session's whole campaign — same-source
    /// siblings and overlap-merged sessions included. Unknown sessions
    /// pool as empty (0 screened, 0.0 fraction).
    std::uint64_t pooled_screened(std::uint64_t session) const;
    double pooled_flagged_fraction(std::uint64_t session) const;

    /// Campaign suspicion for band selection: the larger of the
    /// campaign's detector-flagged and probe-shaped (amplitude) row
    /// fractions. Extraction probes driven hard for SNR are caught by
    /// shape even where the enrolled detector's coverage is partial.
    double pooled_suspicion_fraction(std::uint64_t session) const;

    /// Deployment-level alert (see EngineConfig).
    bool alert() const;

    /// True while either alert is hot for a source first seen during
    /// one (see EngineConfig::probation). Always false for source 0.
    bool probation(SourceId source) const;

    /// Identity-churn alert (see EngineConfig::churn_fresh_sources).
    bool churn_alert() const;

    /// Global window statistics.
    std::uint64_t window_screened() const;
    double window_flagged_fraction() const;
    double window_suspicious_fraction() const;

    // ---- telemetry ----------------------------------------------------------

    std::size_t source_count() const;
    std::vector<SourceId> sources() const;  ///< sorted ascending

    /// Throws ConfigError for a source the engine has never seen (the
    /// per-replica accessor convention).
    SourceCounters source_counters(SourceId source) const;

    std::size_t campaign_count() const;
    std::vector<CampaignCounters> campaigns() const;  ///< sorted by id

    /// The campaign of a session; throws ConfigError for an unknown
    /// session id.
    CampaignCounters campaign_of(std::uint64_t session) const;

    /// Compact JSON object (alert state, window stats, per-source and
    /// per-campaign counters) — the snapshot bench_attrib embeds in
    /// BENCH_attrib.json.
    std::string json_snapshot() const;

    /// The amplitude heuristic, exposed so admission can classify a row
    /// once and reuse the verdict (escalation + observation).
    static bool suspicious_row(std::span<const double> row, const EngineConfig& config);

    /// The sparsity heuristic (alert statistics only).
    static bool basis_like_row(std::span<const double> row, const EngineConfig& config);

    /// suspicious_row and basis_like_row together: one pass over the row,
    /// eight elements a step, where the AVX-512 arm is in effect, and the
    /// two calls themselves elsewhere. Equal to the two calls exactly,
    /// −0.0 and NaN elements included.
    static RowFlags row_flags(std::span<const double> row, const EngineConfig& config);

private:
    struct SessionRec {
        SourceId source = 0;
        std::uint64_t parent = 0;  ///< union-find parent (self at root)
        std::uint64_t screened = 0;
        std::uint64_t flagged = 0;
        std::uint64_t suspicious = 0;
        /// Replayed indexed hashes per foreign campaign root, counted
        /// toward config_.repeat_overlap (cleared once merged).
        std::map<std::uint64_t, std::size_t> overlap;
    };

    /// Aggregates held at each union-find root.
    struct CampaignRec {
        std::size_t sessions = 0;
        std::set<SourceId> source_set;  ///< non-anonymous sources inside
        std::uint64_t screened = 0;
        std::uint64_t flagged = 0;
        std::uint64_t suspicious = 0;
        MinHashSketch sketch{256};
    };

    std::uint64_t find_root(std::uint64_t session) const;  ///< path-halving
    void observe_locked(const Observation& obs);
    AdmissionView admission_view_locked(std::uint64_t session, SourceId source) const;
    /// The session's campaign record, or null for an unknown session.
    const CampaignRec* campaign_locked(std::uint64_t session) const;
    bool probation_locked(SourceId source) const;
    bool alert_locked() const;  ///< the alert predicate, mutex already held
    bool churn_hot_locked() const;  ///< the churn predicate, mutex already held
    SessionRec& ensure_session_locked(std::uint64_t session, SourceId source);
    void merge_campaigns(std::uint64_t a, std::uint64_t b);
    void push_window_event(bool flagged, bool suspicious);
    CampaignCounters campaign_counters_locked(std::uint64_t root) const;

    EngineConfig config_;
    mutable std::mutex mutex_;

    mutable std::unordered_map<std::uint64_t, SessionRec> sessions_;
    std::unordered_map<std::uint64_t, CampaignRec> campaigns_;  ///< keyed by root
    std::map<SourceId, SourceCounters> sources_;
    std::unordered_map<SourceId, std::uint64_t> source_anchor_;  ///< source → a member session
    std::set<SourceId> probation_;  ///< sources first seen during an alert

    /// Inverted index: suspicious/flagged content hash → the session
    /// that first issued it (resolved to its current root on use).
    /// Insertion-ordered ring for the capacity bound.
    std::unordered_map<std::uint64_t, std::uint64_t> index_;
    std::vector<std::uint64_t> index_order_;  ///< ring of inserted hashes
    std::size_t index_cursor_ = 0;

    /// Global sliding window: ring of per-event flag bits.
    std::vector<std::uint8_t> window_;
    std::size_t window_pos_ = 0;
    std::size_t window_filled_ = 0;
    std::uint64_t window_flagged_ = 0;
    std::uint64_t window_suspicious_ = 0;

    /// Identity-churn window: ring over non-anonymous session opens,
    /// 1 = that open was the source's first session.
    std::vector<std::uint8_t> churn_;
    std::size_t churn_pos_ = 0;
    std::size_t churn_filled_ = 0;
    std::size_t churn_fresh_ = 0;
};

}  // namespace xbarsec::attrib
