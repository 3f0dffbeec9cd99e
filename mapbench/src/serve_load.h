/**
 * @file
 * Serve-side load: an in-process serve::Server on a unix socket and a
 * closed-loop probe that sends MAP requests over one
 * serve::ServeClient connection.
 */

#ifndef MAPBENCH_SRC_SERVE_LOAD_H
#define MAPBENCH_SRC_SERVE_LOAD_H

#include <memory>
#include <string>
#include <vector>

#include "mapbench/src/bench.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace mapbench
{

/** The daemon `segram serve` runs, built in this process. */
struct ServeRig
{
    serve::ServiceRegistry registry;
    std::unique_ptr<serve::Server> server;
    std::string socketPath;

    /** Loads @p pack as tenant "ref" and starts listening. */
    ServeRig(const std::string &pack, const std::string &socket_path,
             const core::SegramConfig &config);
    ~ServeRig();
    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;
};

/** What one request saw. Times are seconds from the phase start. */
struct RequestOutcome
{
    size_t request = 0; ///< pool index
    double sentSec = 0.0;
    double doneSec = 0.0;
    bool ok = false;    ///< answered OK with the offline payload
    bool payloadDiffers = false; ///< answered OK, but not byte-identical
    std::string error;  ///< why not, when !ok
};

/** One closed-loop phase: each request is sent when the previous
 *  reply arrives. */
struct Phase
{
    std::vector<RequestOutcome> outcomes;
    double serverMeanMs = 0.0;  ///< STATS latency mean over the phase
    uint64_t serverRequests = 0;
    double wallSec = 0.0;       ///< phase start -> last reply
};

/**
 * Runs one phase against @p rig for @p seconds (at least 3 requests,
 * at most one pass over @p pool): request i goes to pool entry i and
 * must come back as @p expected of that entry, byte for byte. Records
 * a request span per request under @p parent.
 */
Phase runPhase(const ServeRig &rig,
               const std::vector<std::vector<serve::ReadRecord>> &pool,
               const std::vector<std::string> &expected, double seconds,
               Tracer &tracer, int parent);

/** serve.* per-layer metrics of @p phase. */
void setServeLayerMetrics(const Phase &phase, Metrics &metrics);

} // namespace mapbench

#endif // MAPBENCH_SRC_SERVE_LOAD_H
