/**
 * @file
 * Timeline parsing: scripted intervention sequences from JSON.
 *
 * The document is either a bare array of intervention objects or an
 * object with a "timeline" array member; each entry names a kind and
 * its parameters:
 *
 *   [
 *     {"at": 300, "kind": "node-fail", "node": 4},
 *     {"at": 600, "kind": "node-restore", "node": 4},
 *     {"at": 120, "kind": "model-redeploy", "model": 0},
 *     {"at": 240, "kind": "model-retire", "model": 2},
 *     {"at": 360, "kind": "model-deploy", "spec": "llama2-7b"},
 *     {"at": 480, "kind": "arrival-scale", "factor": 2.0},
 *     {"at": 600, "kind": "arrival-burst", "model": 1,
 *      "rpm": 120, "duration": 60}
 *   ]
 *
 * "spec" names a built-in model preset (hw/model_spec.hh,
 * tryModelPreset). Every number must be finite, "node" and "model"
 * must fit an int, and a burst must stay within the burst bounds
 * (harness/intervention.hh). The parsed Timeline slots into
 * ExperimentConfig::timeline / Scenario::timeline verbatim; field
 * validation beyond shape (node/model ranges) happens in
 * ExperimentConfig::validate and at fire time.
 */

#ifndef SLINFER_SCENARIO_TIMELINE_HH
#define SLINFER_SCENARIO_TIMELINE_HH

#include <string>

#include "harness/intervention.hh"

namespace slinfer
{
namespace scenario
{

/** Parse a timeline document. False (with *err set) on malformed
 *  input; entries keep document order. */
bool parseTimeline(const std::string &text, Timeline &out,
                   std::string *err);

/** Read and parse a timeline file. */
bool loadTimelineFile(const std::string &path, Timeline &out,
                      std::string *err);

} // namespace scenario
} // namespace slinfer

#endif // SLINFER_SCENARIO_TIMELINE_HH
