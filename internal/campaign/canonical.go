package campaign

// This file is the single canonicalization point for byte-identity
// comparisons of campaign outputs. Campaign results are deterministic by
// construction — the execution set, buckets, outcomes, failures, and
// telemetry are pure functions of (target, strategy, config, seeds) — but
// four fields measure the host machine rather than the simulation:
//
//	Stats.WallNanos        ("wall_ns")            campaign wall-clock time
//	Stats.ExecutionsPerSec ("executions_per_sec") derived from wall time
//	Stats.RawExecutions    ("raw_executions")     includes in-flight work a
//	                                              detection made redundant —
//	                                              how much depends on worker
//	                                              timing, so two identical
//	                                              campaigns can differ here
//	PlanOutcome.WallMicros ("wall_us")            per-execution wall time
//
// Stats.Workers and Artifact.Workers are config echoes, not execution
// results; tests comparing campaigns across worker counts must ignore
// them too. Stats.Fleet ("fleet") likewise measures the host, not the
// simulation: which worker process died, how many times a task was
// retried before a healthy worker finished it. Scrubbing it is the farm's
// fault-tolerance invariant in miniature — a campaign with injected
// worker crashes must canonicalize to the same bytes as a failure-free
// run, because retried tasks are deterministic re-executions. Every
// byte-identity test (cross-worker determinism, snapshot on/off
// equivalence, chaos-farm equivalence, bench drift) goes through these
// helpers so no test grows its own slightly-different scrub list.

// Canonicalize returns res with every environment-dependent field zeroed:
// the wall-clock measurements and the worker-count config echo. Two
// canonicalized Results from equivalent campaigns compare equal with
// reflect.DeepEqual; everything that survives is part of the
// deterministic execution set.
//
// Merge's in-process carry goes too — the coverage sets and the buckets'
// live example plans. What they say is already in Stats and the buckets'
// Example* fields, and a Result that crossed a process boundary has none,
// so they must not tell an engine's Result from a farm's.
func Canonicalize(res Result) Result {
	res.Stats = canonicalStats(res.Stats)
	res.Outcomes = canonicalOutcomes(res.Outcomes)
	res.cov = nil
	if res.Buckets != nil {
		res.Buckets = append([]FailureBucket(nil), res.Buckets...)
		for i := range res.Buckets {
			res.Buckets[i].example = nil
		}
	}
	return res
}

// CanonicalizeArtifact is Canonicalize for the campaign.json form: the
// same three wall-clock fields plus the top-level and Stats worker-count
// echoes are zeroed, so canonicalized artifacts from equivalent campaigns
// marshal to identical bytes.
func CanonicalizeArtifact(art Artifact) Artifact {
	art.Workers = 0
	art.Stats = canonicalStats(art.Stats)
	art.Outcomes = canonicalOutcomes(art.Outcomes)
	return art
}

func canonicalStats(st Stats) Stats {
	st.Workers = 0
	st.WallNanos = 0
	st.ExecutionsPerSec = 0
	st.RawExecutions = 0
	st.Fleet = nil
	return st
}

func canonicalOutcomes(outs []PlanOutcome) []PlanOutcome {
	if outs == nil {
		return nil
	}
	canon := make([]PlanOutcome, len(outs))
	copy(canon, outs)
	for i := range canon {
		canon[i].WallMicros = 0
	}
	return canon
}
