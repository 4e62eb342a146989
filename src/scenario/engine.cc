#include "scenario/engine.hh"

#include <algorithm>
#include <cassert>
#include <set>

#include "scenario/scheduler.hh"

namespace ot::scenario {

namespace {

constexpr ModelTime kNever = ~ModelTime{0};

/** 0-based nearest-rank index ceil(pct/100 * n) - 1; n > 0. */
std::size_t
rankIndex(unsigned pct, std::size_t n)
{
    assert(pct >= 1 && pct <= 100 && n > 0);
    return (pct * n + 99) / 100 - 1;
}

std::string
sojournJson(const SojournStats &s)
{
    std::string out = "{\"count\": " + std::to_string(s.count);
    out += ", \"p50\": " + std::to_string(s.p50);
    out += ", \"p95\": " + std::to_string(s.p95);
    out += ", \"p99\": " + std::to_string(s.p99);
    out += ", \"mean\": " + std::to_string(s.mean);
    out += ", \"max\": " + std::to_string(s.max) + "}";
    return out;
}

/** "87.3%" from integer permille (keeps reports float-free). */
std::string
permilleText(unsigned permille)
{
    return std::to_string(permille / 10) + "." +
           std::to_string(permille % 10) + "%";
}

void
writeSojournText(std::ostream &os, const SojournStats &s)
{
    os << "p50 " << s.p50 << "  p95 " << s.p95 << "  p99 " << s.p99
       << "  mean " << s.mean << "  max " << s.max;
}

} // namespace

ModelTime
percentileNearestRank(const std::vector<ModelTime> &sorted,
                      unsigned pct)
{
    assert(pct >= 1 && pct <= 100);
    if (sorted.empty())
        return 0;
    return sorted[rankIndex(pct, sorted.size())];
}

SojournStats
summarize(std::vector<ModelTime> &samples)
{
    SojournStats s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    ModelTime sum = 0;
    for (ModelTime v : samples) {
        sum += v;
        s.max = std::max(s.max, v);
    }
    s.mean = sum / samples.size();
    // Select p99 on the whole range, then p95 and p50 on the prefix
    // below the previous pivot, which holds exactly the smaller ranks.
    // An index equal to the prefix end is that pivot, already placed.
    ModelTime *v = samples.data();
    auto select = [&](unsigned pct, std::size_t end) {
        const std::size_t k = rankIndex(pct, samples.size());
        if (k < end)
            std::nth_element(v, v + k, v + end);
        return k;
    };
    const std::size_t k99 = select(99, samples.size());
    s.p99 = v[k99];
    const std::size_t k95 = select(95, k99);
    s.p95 = v[k95];
    s.p50 = v[select(50, k95)];
    return s;
}

ModelTime
summarizedPercentile(const SojournStats &s, unsigned pct)
{
    switch (pct) {
      case 50:
        return s.p50;
      case 95:
        return s.p95;
      default:
        assert(pct == 99);
        return s.p99;
    }
}

std::string
ScenarioReport::toJson() const
{
    std::string out = "{\"scenario\": \"" + scenario + "\"";
    out += ", \"scheduler\": \"" + toString(scheduler) + "\"";
    out += ", \"workers\": " + std::to_string(workers) + ",\n";
    out += " \"arrivals\": " + std::to_string(arrivals);
    out += ", \"completed\": " + std::to_string(completed);
    out += ", \"dropped_queue\": " + std::to_string(droppedQueue);
    out += ", \"dropped_quota\": " + std::to_string(droppedQuota);
    out += ", \"deferred\": " + std::to_string(deferred) + ",\n";
    out += " \"horizon\": " + std::to_string(horizon);
    out += ", \"makespan\": " + std::to_string(makespan);
    out += ", \"total_service\": " + std::to_string(totalService);
    out += ", \"utilization_permille\": " +
           std::to_string(utilizationPermille) + ",\n";
    out += " \"sojourn\": " + sojournJson(sojourn) + ",\n";
    out += " \"clients\": [";
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const ClientReport &c = clients[i];
        if (i)
            out += ",";
        out += "\n  {\"name\": \"" + c.name + "\"";
        out += ", \"arrivals\": " + std::to_string(c.arrivals);
        out += ", \"completed\": " + std::to_string(c.completed);
        out += ", \"dropped_queue\": " +
               std::to_string(c.droppedQueue);
        out += ", \"dropped_quota\": " +
               std::to_string(c.droppedQuota);
        out += ", \"deferred\": " + std::to_string(c.deferred);
        out += ", \"sojourn\": " + sojournJson(c.sojourn);
        out += ", \"slo\": " + std::to_string(c.sloTarget);
        out += ", \"slo_pct\": " + std::to_string(c.sloPct);
        out += ", \"slo_observed\": " + std::to_string(c.sloObserved);
        out += std::string(", \"slo_pass\": ") +
               (c.sloPass ? "true" : "false") + "}";
    }
    out += "\n ],\n";
    out += std::string(" \"slo_pass\": ") +
           (sloPass ? "true" : "false");
    out += std::string(", \"verified\": ") +
           (verified ? "true" : "false") + "}";
    return out;
}

void
ScenarioReport::writeText(std::ostream &os) const
{
    os << "scenario " << scenario << " [" << toString(scheduler)
       << "]: " << arrivals << " arrivals over " << horizon
       << " model time, " << workers << " worker(s)\n";
    os << "  completed " << completed << ", dropped "
       << droppedQueue + droppedQuota << " (queue " << droppedQueue
       << ", quota " << droppedQuota << "), deferred " << deferred
       << "\n";
    os << "  sojourn ";
    writeSojournText(os, sojourn);
    os << "\n";
    os << "  makespan " << makespan << ", service " << totalService
       << ", utilization " << permilleText(utilizationPermille)
       << "\n";
    for (const ClientReport &c : clients) {
        os << "  client " << c.name << ": " << c.arrivals
           << " arrivals, " << c.completed << " completed, sojourn ";
        writeSojournText(os, c.sojourn);
        if (c.sloTarget != 0)
            os << ", slo " << c.sloTarget << "@p" << c.sloPct
               << " observed " << c.sloObserved << " -> "
               << (c.sloPass ? "pass" : "FAIL");
        os << "\n";
    }
    os << "  slo " << (sloPass ? "pass" : "FAIL") << ", verified "
       << (verified ? "yes" : "NO") << "\n";
}

std::string
compareJson(const std::vector<ScenarioReport> &reports)
{
    std::string name = reports.empty() ? "" : reports[0].scenario;
    std::string out = "{\"scenario\": \"" + name +
                      "\", \"reports\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i)
            out += ",\n";
        out += reports[i].toJson();
    }
    out += "\n]}\n";
    return out;
}

ScenarioEngine::ScenarioEngine(unsigned host_threads)
    : _batch(host_threads)
{
}

void
ScenarioEngine::measure(
    const std::vector<const workload::InstanceSpec *> &candidates)
{
    // Collect the not-yet-measured distinct instances in
    // first-appearance order (the batch order is part of the
    // deterministic contract).
    workload::WorkloadSpec missing;
    std::set<workload::InstanceSpec> queued;
    for (const workload::InstanceSpec *inst : candidates) {
        if (_serviceTime.count(*inst) || !queued.insert(*inst).second)
            continue;
        missing.instances.push_back(*inst);
    }
    if (missing.instances.empty())
        return;
    workload::BatchReport br = _batch.run(missing);
    for (const workload::InstanceReport &ir : br.instances) {
        _serviceTime[ir.spec] = ir.time;
        // The first measurement of a shape becomes its estimate.
        _estimate.emplace(workload::cacheKeyFor(ir.spec), ir.time);
    }
    _allVerified = _allVerified && br.allVerified();
}

const ScenarioEngine::ResolvedStream &
ScenarioEngine::resolve(const ScenarioSpec &spec)
{
    if (_stream && _stream->arrival == spec.arrival &&
        _stream->clients == spec.clients)
        return *_stream;

    ResolvedStream s;
    s.arrival = spec.arrival;
    s.clients = spec.clients;
    s.arrivals = generateArrivals(spec);
    const bool vary = spec.arrival.varySeeds;

    // One slot per (client, mix) entry; the first arrival drawn from
    // an entry stands for all of them unless seeds vary.
    std::vector<std::size_t> base(spec.clients.size() + 1, 0);
    for (std::size_t c = 0; c < spec.clients.size(); ++c)
        base[c + 1] = base[c] + spec.clients[c].mix.size();
    auto entryOf = [&](const Arrival &arr) {
        return base[arr.client] + arr.mix;
    };
    constexpr std::size_t kNone = ~std::size_t{0};
    std::vector<std::size_t> first(base.back(), kNone);
    std::vector<const workload::InstanceSpec *> candidates;
    for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
        std::size_t &f = first[entryOf(s.arrivals[i])];
        if (f == kNone)
            f = i;
        if (vary || f == i)
            candidates.push_back(&s.arrivals[i].inst);
    }
    measure(candidates);

    // cacheKeyFor ignores the seed, so an entry's estimate holds for
    // every arrival drawn from it.
    std::vector<ModelTime> entryService(first.size(), 0);
    std::vector<ModelTime> entryEstimate(first.size(), 0);
    for (std::size_t e = 0; e < first.size(); ++e) {
        if (first[e] == kNone)
            continue;
        const workload::InstanceSpec &inst = s.arrivals[first[e]].inst;
        if (!vary)
            entryService[e] = _serviceTime.at(inst);
        entryEstimate[e] = _estimate.at(workload::cacheKeyFor(inst));
    }
    s.service.resize(s.arrivals.size());
    s.estimate.resize(s.arrivals.size());
    for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
        const Arrival &arr = s.arrivals[i];
        const std::size_t e = entryOf(arr);
        s.service[i] = vary ? _serviceTime.at(arr.inst) : entryService[e];
        s.estimate[i] = entryEstimate[e];
    }
    _stream = std::move(s);
    return *_stream;
}

ScenarioReport
ScenarioEngine::run(const ScenarioSpec &spec)
{
    return run(spec, spec.scheduler);
}

ScenarioReport
ScenarioEngine::run(const ScenarioSpec &spec, SchedulerKind scheduler)
{
    validate(spec);
    const ResolvedStream &stream = resolve(spec);
    const std::vector<Arrival> &arrivals = stream.arrivals;

    ScenarioReport rep;
    rep.scenario = spec.name;
    rep.scheduler = scheduler;
    rep.workers = spec.workers;
    rep.horizon = spec.arrival.duration;
    rep.arrivals = arrivals.size();
    rep.verified = _allVerified;
    rep.clients.resize(spec.clients.size());
    for (std::size_t c = 0; c < spec.clients.size(); ++c) {
        rep.clients[c].name = spec.clients[c].name;
        rep.clients[c].sloTarget = spec.clients[c].slo;
        rep.clients[c].sloPct = spec.clients[c].sloPct;
    }

    // The job table, in arrival order.
    rep.jobs.resize(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        JobOutcome &jo = rep.jobs[i];
        jo.job = i;
        jo.client = arrivals[i].client;
        jo.arrive = arrivals[i].at;
        jo.service = stream.service[i];
    }

    // Event-driven queue walk.  Two event kinds interleave in model
    // time: arrivals (admission decisions) and starts (scheduling
    // decisions when a worker frees).  Arrivals win ties so a job
    // landing exactly when a worker frees is eligible immediately.
    std::vector<ModelTime> workerFree(spec.workers, 0);
    std::vector<QueueJob> queue;
    std::vector<QueueJob> backlog; // deferred, FIFO re-admission
    std::vector<ModelTime> served(spec.clients.size(), 0);
    std::vector<std::size_t> outstanding(spec.clients.size(), 0);
    // Started-but-uncounted completions, retired per arrival time.
    std::vector<std::pair<ModelTime, unsigned>> running;

    auto makeQueueJob = [&](std::size_t i) {
        const ClientConfig &c = spec.clients[rep.jobs[i].client];
        QueueJob q;
        q.job = i;
        q.arrive = rep.jobs[i].arrive;
        q.client = rep.jobs[i].client;
        q.estimate = stream.estimate[i];
        q.deadline = c.slo == 0 ? kNever : q.arrive + c.slo;
        return q;
    };
    auto promote = [&] {
        while (!backlog.empty() &&
               (spec.queueCap == 0 || queue.size() < spec.queueCap)) {
            queue.push_back(backlog.front());
            backlog.erase(backlog.begin());
        }
    };

    std::size_t ai = 0;
    while (ai < rep.jobs.size() || !queue.empty() ||
           !backlog.empty()) {
        promote();
        // Earliest possible start of a queued job: the freest worker
        // (lowest index on ties), gated on the earliest queued
        // arrival.
        std::size_t w = 0;
        for (std::size_t i = 1; i < workerFree.size(); ++i)
            if (workerFree[i] < workerFree[w])
                w = i;
        ModelTime tStart = kNever;
        if (!queue.empty()) {
            ModelTime qArr = kNever;
            for (const QueueJob &q : queue)
                qArr = std::min(qArr, q.arrive);
            tStart = std::max(workerFree[w], qArr);
        }
        ModelTime tArr =
            ai < rep.jobs.size() ? rep.jobs[ai].arrive : kNever;

        if (ai < rep.jobs.size() && tArr <= tStart) {
            // Admission at tArr.  Retire completions first so the
            // quota sees the true outstanding count.
            for (std::size_t i = 0; i < running.size();) {
                if (running[i].first <= tArr) {
                    --outstanding[running[i].second];
                    running[i] = running.back();
                    running.pop_back();
                } else {
                    ++i;
                }
            }
            JobOutcome &jo = rep.jobs[ai];
            const ClientConfig &c = spec.clients[jo.client];
            if (c.quota != 0 && outstanding[jo.client] >= c.quota) {
                jo.droppedQuota = true;
            } else if (spec.queueCap != 0 &&
                       queue.size() >= spec.queueCap) {
                if (spec.shed == ShedPolicy::Drop) {
                    jo.droppedQueue = true;
                } else {
                    jo.deferred = true;
                    backlog.push_back(makeQueueJob(ai));
                    ++outstanding[jo.client];
                }
            } else {
                queue.push_back(makeQueueJob(ai));
                ++outstanding[jo.client];
            }
            ++ai;
            continue;
        }
        if (queue.empty())
            break; // backlog can never drain without queue space

        // Start one job on worker w at tStart.
        std::size_t pick = pickNext(scheduler, queue, served);
        QueueJob q = queue[pick];
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(pick));
        JobOutcome &jo = rep.jobs[q.job];
        jo.start = std::max(workerFree[w], q.arrive);
        jo.complete = jo.start + jo.service;
        jo.completed = true;
        workerFree[w] = jo.complete;
        served[q.client] += jo.service;
        running.push_back({jo.complete, q.client});
    }

    // Aggregate.
    std::vector<ModelTime> all;
    all.reserve(rep.jobs.size());
    std::vector<std::vector<ModelTime>> perClient(
        spec.clients.size());
    for (const JobOutcome &jo : rep.jobs) {
        ClientReport &cr = rep.clients[jo.client];
        ++cr.arrivals;
        if (jo.deferred) {
            ++rep.deferred;
            ++cr.deferred;
        }
        if (jo.droppedQueue) {
            ++rep.droppedQueue;
            ++cr.droppedQueue;
        }
        if (jo.droppedQuota) {
            ++rep.droppedQuota;
            ++cr.droppedQuota;
        }
        if (!jo.completed)
            continue;
        ++rep.completed;
        ++cr.completed;
        rep.makespan = std::max(rep.makespan, jo.complete);
        rep.totalService += jo.service;
        all.push_back(jo.complete - jo.arrive);
        perClient[jo.client].push_back(jo.complete - jo.arrive);
    }
    rep.sojourn = summarize(all);
    if (rep.makespan != 0)
        rep.utilizationPermille = static_cast<unsigned>(
            rep.totalService * 1000 / (rep.makespan * rep.workers));
    for (std::size_t c = 0; c < rep.clients.size(); ++c) {
        ClientReport &cr = rep.clients[c];
        cr.sojourn = summarize(perClient[c]);
        if (cr.sloTarget != 0) {
            cr.sloObserved = summarizedPercentile(cr.sojourn, cr.sloPct);
            cr.sloPass = cr.sloObserved <= cr.sloTarget &&
                         cr.droppedQueue + cr.droppedQuota == 0;
        }
        rep.sloPass = rep.sloPass && cr.sloPass;
    }

    if (_tracer != nullptr) {
        // One span per completed job, in arrival order (the merge
        // key is deterministic data only).
        for (const JobOutcome &jo : rep.jobs) {
            if (!jo.completed)
                continue;
            trace::Event e;
            e.kind = trace::EventKind::Span;
            e.start = jo.start;
            e.dur = jo.service;
            e.cat = "scenario";
            e.name = "job";
            e.tree = static_cast<std::int64_t>(jo.job);
            e.words = jo.complete - jo.arrive;
            _tracer->record(std::move(e));
        }
    }
    return rep;
}

} // namespace ot::scenario
