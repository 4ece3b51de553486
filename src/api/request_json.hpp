#pragma once
// Wire form of JobRequest: the "ndft.job_request.v1" JSON schema, the
// inverse of the result serializer in api/result.hpp. This is what the
// network front end (src/net) accepts on POST /v1/jobs and what
// HttpClient sends — but it has no network dependency of its own, so
// batch drivers and tests can use it for request persistence too.
//
// Shape:
//   {"schema": "ndft.job_request.v1", "kind": "<job kind>", "job": {...}}
//
// People write requests, so every member of "job" except a codesign
// job's "trace" is optional and defaults to the corresponding struct
// default: {"schema": ..., "kind": "plan", "job": {}} is a complete
// request. Everything else follows the one reading rule of every JSON
// document (docs/API.md, "JSON documents"): an unknown member, a wrong
// type, an integer outside its C++ type's range or an unknown "kind"
// throws NdftError, which the service layer maps to a clean 400.
//
// Round trip: job_request_from_json(job_request_to_json(r)) reproduces r
// exactly (pinned by tests/net_test.cpp).

#include "api/job.hpp"
#include "common/json.hpp"

namespace ndft::api {

/// The request schema identifier ("ndft.job_request.v1").
extern const char* const kJobRequestSchema;

/// Serializes a request under the "ndft.job_request.v1" schema.
Json job_request_to_json(const JobRequest& request);

/// Reconstructs a request from its serialized form; throws NdftError on
/// schema mismatch, unknown kind, or malformed members. The result is
/// structurally well-formed but NOT yet validated: run api::validate()
/// (or let the Engine do it) before executing.
JobRequest job_request_from_json(const Json& json);

}  // namespace ndft::api
