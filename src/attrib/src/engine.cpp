#include "xbarsec/attrib/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/tensor/gemm.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace xbarsec::attrib {

namespace {

/// basis_like_row's non-zero budget for a row of `cols` elements.
std::size_t nnz_budget(std::size_t cols, const EngineConfig& config) {
    const std::size_t divisor = std::max<std::size_t>(config.basis_nnz_divisor, 1);
    return std::max<std::size_t>(cols / divisor, 1);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define XS_ATTRIB_HAVE_AVX512 1

/// row_flags eight elements a step. The compares are the scalar ones:
/// |v| > amplitude is ordered (false for NaN), v != 0 unordered (true
/// for NaN, false for −0.0). Lanes past the row's end are masked out.
__attribute__((target("avx512f"))) RowFlags row_flags_avx512(const double* v, std::size_t n,
                                                             double amplitude,
                                                             std::size_t budget) {
    const __m512d amp = _mm512_set1_pd(amplitude);
    const __m512d zero = _mm512_setzero_pd();
    const __m512i one = _mm512_set1_epi64(1);
    __m512i nnz = _mm512_setzero_si512();
    __mmask8 hot = 0;
    for (std::size_t j = 0; j < n; j += 8) {
        const __mmask8 live =
            n - j >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << (n - j)) - 1u);
        const __m512d x = _mm512_maskz_loadu_pd(live, v + j);
        hot |= _mm512_mask_cmp_pd_mask(live, _mm512_abs_pd(x), amp, _CMP_GT_OQ);
        const __mmask8 driven = _mm512_mask_cmp_pd_mask(live, x, zero, _CMP_NEQ_UQ);
        nnz = _mm512_mask_add_epi64(nnz, driven, nnz, one);
    }
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(lanes, nnz);
    std::uint64_t driven_total = 0;
    for (const std::uint64_t lane : lanes) driven_total += lane;
    RowFlags flags;
    flags.suspicious = hot != 0;
    flags.basis_like = driven_total <= budget;
    return flags;
}
#endif

}  // namespace

AttributionEngine::AttributionEngine(EngineConfig config) : config_(config) {
    XS_EXPECTS(config_.window_events > 0);
    XS_EXPECTS(config_.sketch_k > 0);
    XS_EXPECTS(config_.repeat_overlap > 0);
    XS_EXPECTS(config_.index_capacity > 0);
    XS_EXPECTS(config_.churn_fresh_sources == 0 || config_.churn_window_opens > 0);
    window_.assign(config_.window_events, 0);
    if (config_.churn_fresh_sources > 0) churn_.assign(config_.churn_window_opens, 0);
}

bool AttributionEngine::suspicious_row(std::span<const double> row, const EngineConfig& config) {
    for (const double v : row) {
        if (std::abs(v) > config.suspicious_amplitude) return true;
    }
    return false;
}

bool AttributionEngine::basis_like_row(std::span<const double> row, const EngineConfig& config) {
    const std::size_t budget = nnz_budget(row.size(), config);
    std::size_t nnz = 0;
    for (const double v : row) {
        if (v != 0.0 && ++nnz > budget) return false;
    }
    return true;
}

RowFlags AttributionEngine::row_flags(std::span<const double> row, const EngineConfig& config) {
#ifdef XS_ATTRIB_HAVE_AVX512
    if (tensor::avx512_in_effect()) {
        return row_flags_avx512(row.data(), row.size(), config.suspicious_amplitude,
                                nnz_budget(row.size(), config));
    }
#endif
    return {suspicious_row(row, config), basis_like_row(row, config)};
}

// ---- union-find over session ids --------------------------------------------

std::uint64_t AttributionEngine::find_root(std::uint64_t session) const {
    std::uint64_t node = session;
    for (;;) {
        const auto it = sessions_.find(node);
        if (it == sessions_.end() || it->second.parent == node) return node;
        const auto gp = sessions_.find(it->second.parent);
        if (gp != sessions_.end() && gp->second.parent != it->second.parent) {
            it->second.parent = gp->second.parent;  // path halving
        }
        node = it->second.parent;
    }
}

void AttributionEngine::merge_campaigns(std::uint64_t a, std::uint64_t b) {
    std::uint64_t ra = find_root(a);
    std::uint64_t rb = find_root(b);
    if (ra == rb) return;
    // Union by cluster size: the larger campaign keeps its root, so the
    // inverted index and overlap counters keyed by it stay mostly live.
    if (campaigns_.at(ra).sessions < campaigns_.at(rb).sessions) std::swap(ra, rb);
    CampaignRec& keep = campaigns_.at(ra);
    CampaignRec& gone = campaigns_.at(rb);
    keep.sessions += gone.sessions;
    keep.screened += gone.screened;
    keep.flagged += gone.flagged;
    keep.suspicious += gone.suspicious;
    keep.source_set.insert(gone.source_set.begin(), gone.source_set.end());
    keep.sketch.merge(gone.sketch);
    campaigns_.erase(rb);
    sessions_[rb].parent = ra;
}

// ---- session lifecycle ------------------------------------------------------

void AttributionEngine::note_session_open(std::uint64_t session, SourceId source) {
    std::lock_guard lock(mutex_);
    ensure_session_locked(session, source);
}

AttributionEngine::SessionRec& AttributionEngine::ensure_session_locked(std::uint64_t session,
                                                                        SourceId source) {
    const auto existing = sessions_.find(session);
    if (existing != sessions_.end()) return existing->second;  // idempotent
    SessionRec rec;
    rec.source = source;
    rec.parent = session;
    sessions_.emplace(session, std::move(rec));

    CampaignRec camp;
    camp.sessions = 1;
    if (source != 0) camp.source_set.insert(source);
    camp.sketch = MinHashSketch(config_.sketch_k);
    campaigns_.emplace(session, std::move(camp));

    // Identity-churn window: record whether this non-anonymous open was
    // the source's first session *before* the probation check, so the
    // open that trips the churn threshold is itself caught by it.
    const bool fresh_source = source != 0 && sources_.count(source) == 0;
    if (source != 0 && !churn_.empty()) {
        if (churn_filled_ == churn_.size()) {
            if (churn_[churn_pos_] != 0) --churn_fresh_;
        } else {
            ++churn_filled_;
        }
        churn_[churn_pos_] = fresh_source ? 1 : 0;
        churn_pos_ = (churn_pos_ + 1) % churn_.size();
        if (fresh_source) ++churn_fresh_;
    }

    // Probation: a principal whose very first session arrives while the
    // deployment is under active probing (detector-window alert) or
    // while identities are being minted at attack pace (churn alert) is
    // marked; admission refuses marked sources for as long as either
    // alert stays hot. The mark is permanent, the enforcement
    // alert-gated — if the attack resumes and re-trips an alert, the
    // freeze resumes with it.
    if (config_.probation && fresh_source && (alert_locked() || churn_hot_locked())) {
        probation_.insert(source);
    }

    SourceCounters& src = sources_[source];
    src.source = source;
    ++src.sessions;

    // Identity clustering: every session of one non-anonymous source is
    // the same principal, so they share one campaign from the start —
    // rotation under an honest source buys nothing. Anonymous sessions
    // (source 0) are never identity-clustered; only query overlap can
    // merge them.
    if (source != 0) {
        const auto anchor = source_anchor_.find(source);
        if (anchor == source_anchor_.end()) {
            source_anchor_.emplace(source, session);
        } else {
            merge_campaigns(session, anchor->second);
        }
    }
    return sessions_.at(session);
}

void AttributionEngine::note_session_close(std::uint64_t session) {
    std::lock_guard lock(mutex_);
    if (sessions_.count(session) == 0) return;
    const std::uint64_t root = find_root(session);
    const auto self = campaigns_.find(root);
    if (self == campaigns_.end()) return;
    // Sketch-overlap merge pass: absorb this campaign into any campaign
    // whose suspicious-probe set it substantially shares. Jaccard
    // similarity catches comparable sketches; containment catches a
    // short campaign replaying a slice of a long one. Clean sessions
    // have (near-)empty sketches and never reach merge_min_hashes.
    if (self->second.sketch.size() < config_.merge_min_hashes) return;
    std::vector<std::uint64_t> candidates;
    for (const auto& [other_root, camp] : campaigns_) {
        if (other_root == root) continue;
        if (camp.sketch.size() < config_.merge_min_hashes) continue;
        if (self->second.sketch.similarity(camp.sketch) >= config_.merge_similarity ||
            self->second.sketch.containment_in(camp.sketch) >= config_.merge_similarity) {
            candidates.push_back(other_root);
        }
    }
    for (const std::uint64_t other : candidates) merge_campaigns(root, other);
}

// ---- observation feed -------------------------------------------------------

void AttributionEngine::push_window_event(bool flagged, bool suspicious) {
    const std::uint8_t bits =
        static_cast<std::uint8_t>((flagged ? 1u : 0u) | (suspicious ? 2u : 0u));
    if (window_filled_ == window_.size()) {
        const std::uint8_t old = window_[window_pos_];
        if ((old & 1u) != 0) --window_flagged_;
        if ((old & 2u) != 0) --window_suspicious_;
    } else {
        ++window_filled_;
    }
    window_[window_pos_] = bits;
    window_pos_ = (window_pos_ + 1) % window_.size();
    if (flagged) ++window_flagged_;
    if (suspicious) ++window_suspicious_;
}

void AttributionEngine::observe(const Observation& obs) {
    std::lock_guard lock(mutex_);
    observe_locked(obs);
}

AdmissionView AttributionEngine::observe_unit(std::span<const Observation> rows,
                                              std::uint64_t session, SourceId source) {
    std::lock_guard lock(mutex_);
    for (const Observation& obs : rows) observe_locked(obs);
    return admission_view_locked(session, source);
}

AdmissionView AttributionEngine::admission_view(std::uint64_t session, SourceId source) const {
    std::lock_guard lock(mutex_);
    return admission_view_locked(session, source);
}

AdmissionView AttributionEngine::admission_view_locked(std::uint64_t session,
                                                       SourceId source) const {
    AdmissionView view;
    view.alert = alert_locked();
    view.probation = probation_locked(source);
    if (const CampaignRec* camp = campaign_locked(session)) {
        view.pooled_screened = camp->screened;
        if (camp->screened != 0) {
            view.pooled_suspicion = static_cast<double>(std::max(camp->flagged, camp->suspicious)) /
                                    static_cast<double>(camp->screened);
        }
    }
    return view;
}

void AttributionEngine::observe_locked(const Observation& obs) {
    // Adopts sessions the engine never saw open (wired mid-flight).
    SessionRec& rec = ensure_session_locked(obs.session, obs.source);
    ++rec.screened;
    if (obs.flagged) ++rec.flagged;
    if (obs.suspicious) ++rec.suspicious;

    const std::uint64_t root = find_root(obs.session);
    CampaignRec& camp = campaigns_.at(root);
    ++camp.screened;
    if (obs.flagged) ++camp.flagged;
    if (obs.suspicious) ++camp.suspicious;

    SourceCounters& src = sources_[rec.source];
    src.source = rec.source;
    ++src.screened;
    if (obs.flagged) ++src.flagged;
    if (obs.suspicious) ++src.suspicious;

    // Basis-likeness feeds the deployment alert only; amplitude and
    // detector flags additionally drive clustering.
    push_window_event(obs.flagged, obs.suspicious || obs.basis_like);

    if (!obs.flagged && !obs.suspicious) return;  // clean rows never cluster
    camp.sketch.insert(obs.input_hash);

    const auto owner = index_.find(obs.input_hash);
    if (owner == index_.end()) {
        if (index_order_.size() < config_.index_capacity) {
            index_order_.push_back(obs.input_hash);
        } else {
            // Ring replacement: the oldest indexed hash makes room.
            index_.erase(index_order_[index_cursor_]);
            index_order_[index_cursor_] = obs.input_hash;
            index_cursor_ = (index_cursor_ + 1) % index_order_.size();
        }
        index_.emplace(obs.input_hash, obs.session);
        return;
    }
    const std::uint64_t owner_root = find_root(owner->second);
    if (owner_root == root) return;  // replaying our own campaign
    if (++rec.overlap[owner_root] >= config_.repeat_overlap) {
        merge_campaigns(obs.session, owner_root);
        rec.overlap.clear();
    }
}

// ---- pooled suspicion -------------------------------------------------------

const AttributionEngine::CampaignRec* AttributionEngine::campaign_locked(
    std::uint64_t session) const {
    if (sessions_.count(session) == 0) return nullptr;
    const auto it = campaigns_.find(find_root(session));
    return it != campaigns_.end() ? &it->second : nullptr;
}

std::uint64_t AttributionEngine::pooled_screened(std::uint64_t session) const {
    std::lock_guard lock(mutex_);
    const CampaignRec* camp = campaign_locked(session);
    return camp != nullptr ? camp->screened : 0;
}

double AttributionEngine::pooled_flagged_fraction(std::uint64_t session) const {
    std::lock_guard lock(mutex_);
    const CampaignRec* camp = campaign_locked(session);
    if (camp == nullptr || camp->screened == 0) return 0.0;
    return static_cast<double>(camp->flagged) / static_cast<double>(camp->screened);
}

double AttributionEngine::pooled_suspicion_fraction(std::uint64_t session) const {
    std::lock_guard lock(mutex_);
    return admission_view_locked(session, 0).pooled_suspicion;
}

// ---- global window ----------------------------------------------------------

bool AttributionEngine::alert_locked() const {
    if (window_filled_ < config_.alert_min_screened) return false;
    const double n = static_cast<double>(window_filled_);
    return static_cast<double>(window_flagged_) / n >= config_.alert_flagged_fraction ||
           static_cast<double>(window_suspicious_) / n >= config_.alert_suspicious_fraction;
}

bool AttributionEngine::alert() const {
    std::lock_guard lock(mutex_);
    return alert_locked();
}

bool AttributionEngine::churn_hot_locked() const {
    return config_.churn_fresh_sources > 0 && churn_fresh_ >= config_.churn_fresh_sources;
}

bool AttributionEngine::churn_alert() const {
    std::lock_guard lock(mutex_);
    return churn_hot_locked();
}

bool AttributionEngine::probation(SourceId source) const {
    std::lock_guard lock(mutex_);
    return probation_locked(source);
}

bool AttributionEngine::probation_locked(SourceId source) const {
    return source != 0 && probation_.count(source) > 0 && (alert_locked() || churn_hot_locked());
}

std::uint64_t AttributionEngine::window_screened() const {
    std::lock_guard lock(mutex_);
    return window_filled_;
}

double AttributionEngine::window_flagged_fraction() const {
    std::lock_guard lock(mutex_);
    return window_filled_ == 0
               ? 0.0
               : static_cast<double>(window_flagged_) / static_cast<double>(window_filled_);
}

double AttributionEngine::window_suspicious_fraction() const {
    std::lock_guard lock(mutex_);
    return window_filled_ == 0
               ? 0.0
               : static_cast<double>(window_suspicious_) / static_cast<double>(window_filled_);
}

// ---- telemetry --------------------------------------------------------------

std::size_t AttributionEngine::source_count() const {
    std::lock_guard lock(mutex_);
    return sources_.size();
}

std::vector<SourceId> AttributionEngine::sources() const {
    std::lock_guard lock(mutex_);
    std::vector<SourceId> out;
    out.reserve(sources_.size());
    for (const auto& [source, counters] : sources_) out.push_back(source);
    return out;  // std::map iteration: already sorted ascending
}

SourceCounters AttributionEngine::source_counters(SourceId source) const {
    std::lock_guard lock(mutex_);
    const auto it = sources_.find(source);
    if (it == sources_.end()) {
        throw ConfigError("attribution source " + std::to_string(source) +
                          " has never opened a session on this service");
    }
    return it->second;
}

CampaignCounters AttributionEngine::campaign_counters_locked(std::uint64_t root) const {
    const CampaignRec& camp = campaigns_.at(root);
    CampaignCounters out;
    out.id = root;
    out.sessions = camp.sessions;
    out.sources = camp.source_set.size();
    out.screened = camp.screened;
    out.flagged = camp.flagged;
    out.suspicious = camp.suspicious;
    out.sketch_hashes = camp.sketch.size();
    return out;
}

std::size_t AttributionEngine::campaign_count() const {
    std::lock_guard lock(mutex_);
    return campaigns_.size();
}

std::vector<CampaignCounters> AttributionEngine::campaigns() const {
    std::lock_guard lock(mutex_);
    std::vector<CampaignCounters> out;
    out.reserve(campaigns_.size());
    for (const auto& [root, camp] : campaigns_) out.push_back(campaign_counters_locked(root));
    std::sort(out.begin(), out.end(),
              [](const CampaignCounters& a, const CampaignCounters& b) { return a.id < b.id; });
    return out;
}

CampaignCounters AttributionEngine::campaign_of(std::uint64_t session) const {
    std::lock_guard lock(mutex_);
    if (sessions_.count(session) == 0) {
        throw ConfigError("session " + std::to_string(session) +
                          " is unknown to the attribution engine");
    }
    return campaign_counters_locked(find_root(session));
}

std::string AttributionEngine::json_snapshot() const {
    std::lock_guard lock(mutex_);
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(6);
    const double n = window_filled_ > 0 ? static_cast<double>(window_filled_) : 1.0;
    os << "{\"alert\":" << (alert_locked() ? "true" : "false")
       << ",\"churn_alert\":" << (churn_hot_locked() ? "true" : "false")
       << ",\"churn_fresh_sources\":" << churn_fresh_
       << ",\"probation_sources\":" << probation_.size() << ",\"window\":{\"screened\":"
       << window_filled_ << ",\"flagged_fraction\":" << static_cast<double>(window_flagged_) / n
       << ",\"suspicious_fraction\":" << static_cast<double>(window_suspicious_) / n << "}";
    os << ",\"sources\":[";
    bool first = true;
    for (const auto& [source, src] : sources_) {
        os << (first ? "" : ",") << "{\"source\":" << source << ",\"sessions\":" << src.sessions
           << ",\"screened\":" << src.screened << ",\"flagged\":" << src.flagged
           << ",\"suspicious\":" << src.suspicious << "}";
        first = false;
    }
    os << "],\"campaigns\":[";
    first = true;
    std::vector<std::uint64_t> roots;
    roots.reserve(campaigns_.size());
    for (const auto& [root, camp] : campaigns_) roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    for (const std::uint64_t root : roots) {
        const CampaignCounters c = campaign_counters_locked(root);
        os << (first ? "" : ",") << "{\"id\":" << c.id << ",\"sessions\":" << c.sessions
           << ",\"sources\":" << c.sources << ",\"screened\":" << c.screened
           << ",\"flagged\":" << c.flagged << ",\"suspicious\":" << c.suspicious
           << ",\"sketch_hashes\":" << c.sketch_hashes << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

}  // namespace xbarsec::attrib
