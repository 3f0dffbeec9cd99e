#include "mapbench/src/serve_load.h"

#include "src/serve/client.h"
#include "src/util/check.h"

namespace mapbench
{

namespace
{

/** server.map_requests and server.latency_mean_ms from STATS. */
std::pair<uint64_t, double>
serverLatency(const std::string &socket_path)
{
    auto client = serve::ServeClient::connectUnixSocket(socket_path);
    const serve::Reply reply = client.stats();
    SEGRAM_CHECK(reply.ok, "STATS failed: " + reply.code);
    uint64_t requests = 0;
    double mean_ms = 0.0;
    size_t pos = 0;
    while (pos < reply.payload.size()) {
        size_t end = reply.payload.find('\n', pos);
        if (end == std::string::npos)
            end = reply.payload.size();
        const std::string line = reply.payload.substr(pos, end - pos);
        const size_t space = line.find(' ');
        const std::string key = line.substr(0, space);
        if (space != std::string::npos) {
            if (key == "server.map_requests")
                requests = std::stoull(line.substr(space + 1));
            else if (key == "server.latency_mean_ms")
                mean_ms = std::stod(line.substr(space + 1));
        }
        pos = end + 1;
    }
    return {requests, mean_ms};
}

} // namespace

ServeRig::ServeRig(const std::string &pack, const std::string &socket_path,
                   const core::SegramConfig &config)
    : socketPath(socket_path)
{
    // `segram serve --threads 2` with its default queue and batch limit.
    serve::ServiceConfig service;
    service.segram = config;
    service.batch.threads = kThreads;
    registry.add(std::make_shared<serve::MappingService>("ref", pack,
                                                         service));
    serve::ServerConfig server_config;
    server_config.unixPath = socket_path;
    server = std::make_unique<serve::Server>(registry, server_config);
    server->start();
}

ServeRig::~ServeRig()
{
    try {
        server->stop();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "mapbench: server stop failed: %s\n",
                     error.what());
    }
}

Phase
runPhase(const ServeRig &rig,
         const std::vector<std::vector<serve::ReadRecord>> &pool,
         const std::vector<std::string> &expected, double seconds,
         Tracer &tracer, int parent)
{
    Phase phase;
    auto client = serve::ServeClient::connectUnixSocket(rig.socketPath);
    const auto [requests_before, mean_before] =
        serverLatency(rig.socketPath);
    const auto start = Clock::now();
    for (size_t i = 0; i < pool.size(); ++i) {
        if (i >= 3 && secondsBetween(start, Clock::now()) >= seconds)
            break;
        RequestOutcome &outcome = phase.outcomes.emplace_back();
        outcome.request = i;
        outcome.sentSec = secondsBetween(start, Clock::now());
        try {
            const serve::Reply reply = client.mapReads("ref", pool[i]);
            outcome.payloadDiffers =
                reply.ok && reply.payload != expected[i];
            if (!reply.ok)
                outcome.error = "ERR " + reply.code + " " + reply.message;
            else if (outcome.payloadDiffers)
                outcome.error = "payload differs from offline PAF";
            outcome.ok = outcome.error.empty();
        } catch (const std::exception &error) {
            outcome.error = error.what();
        }
        outcome.doneSec = secondsBetween(start, Clock::now());
    }
    phase.wallSec = secondsBetween(start, Clock::now());

    const auto [requests_after, mean_after] = serverLatency(rig.socketPath);
    phase.serverRequests = requests_after - requests_before;
    if (phase.serverRequests > 0)
        phase.serverMeanMs =
            (mean_after * static_cast<double>(requests_after) -
             mean_before * static_cast<double>(requests_before)) /
            static_cast<double>(phase.serverRequests);

    const auto at = [&](double sec) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(sec));
    };
    for (const RequestOutcome &outcome : phase.outcomes)
        tracer.add("request", at(outcome.sentSec), at(outcome.doneSec),
                   parent, static_cast<int64_t>(outcome.request));
    return phase;
}

void
setServeLayerMetrics(const Phase &phase, Metrics &metrics)
{
    std::vector<double> round_trip;
    for (const auto &outcome : phase.outcomes)
        round_trip.push_back((outcome.doneSec - outcome.sentSec) * 1e3);
    double mean_round_trip = 0.0;
    for (const double ms : round_trip)
        mean_round_trip += ms / static_cast<double>(round_trip.size());
    metrics.set("serve.server_mean_ms", phase.serverMeanMs, "ms");
    metrics.set("serve.overhead_mean_ms",
                mean_round_trip - phase.serverMeanMs, "ms");
    metrics.set("serve.busy_frac",
                phase.serverMeanMs * 1e-3 *
                    static_cast<double>(phase.serverRequests) /
                    std::max(phase.wallSec, 1e-9),
                "ratio");
    metrics.set("serve.latency_p50_ms", quantile(round_trip, 0.5), "ms");
    metrics.set("serve.latency_p99_ms", quantile(round_trip, 0.99), "ms");
    metrics.set("serve.latency_samples",
                static_cast<double>(round_trip.size()), "count");
}

} // namespace mapbench
