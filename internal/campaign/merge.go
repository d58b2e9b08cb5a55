package campaign

import "sort"

// Merge joins two parts of one (target, strategy) sweep — a, covering the
// earlier seeds, then b — into the Result of the whole. It is the only
// sweep aggregation there is: Engine.Run folds its per-seed parts through
// it, and farm.Collate folds the shards its workers return through the
// same function, so "a farm run equals a single-process run" compares one
// implementation against itself across a process boundary.
//
// Four laws hold (merge_test.go checks them on every target), up to
// Canonicalize:
//
//  1. Identity: Merge(Result{}, x) == x == Merge(x, Result{}).
//  2. Associativity: Merge(Merge(a, b), c) == Merge(a, Merge(b, c)), so a
//     sweep may be cut into parts anywhere.
//  3. Fold: merging the single-seed runs of seeds s1..sn equals the one
//     engine run over s1..sn, whenever seeds do not feed each other
//     (no Prune/Ranked: seed n's learned schedule reads the buckets of
//     seeds < n, which is why the farm never shards such a cell).
//  4. Earlier wins: a bucket two parts share keeps every field but Count
//     from the earlier part — its example is the sweep's earliest
//     reproducing execution, and the explanation it carries is the one a
//     single engine derives from that example.
//
// The rules: Seeds, Outcomes, Failures and Learn concatenate (sweep order
// is seed-major); Buckets join by signature with Count summed; the
// coverage sets union; the counters in Stats add, per cause for
// SnapshotFallbacks and Fleet (nil stays nil, so healthy bytes do not
// change); and whatever is a function of the rest — the headline through
// PrimaryCampaign, coverage and explanation counters, exec/s — is
// recomputed from the merged value (Result.derive). Explanation counters
// must be: shards explain their own buckets, so a later shard's redundant
// explanation of a signature an earlier seed owns is dropped with its
// bucket, and its executions must not be counted.
//
// Like append, Merge may reuse a's storage: fold with acc = Merge(acc, part)
// and do not use the old acc again. b is only read. Merging into the zero
// Result therefore yields a copy that shares no mutable state with b.
func Merge(a, b Result) Result {
	if a.cov == nil {
		cov := newCoverage()
		cov.absorb(a)
		a.cov = cov
	}
	a.cov.absorb(b)
	if a.Target == "" {
		a.Target, a.Strategy = b.Target, b.Strategy
	}
	a.Seeds = append(a.Seeds, b.Seeds...)
	a.Outcomes = append(a.Outcomes, b.Outcomes...)
	a.Failures = append(a.Failures, b.Failures...)
	a.Learn = append(a.Learn, b.Learn...)
	a.Buckets = joinBuckets(a.Buckets, b.Buckets)
	a.Stats = a.Stats.plus(b.Stats)
	a.derive()
	return a
}

// joinBuckets merges two bucket lists by signature: shared signatures sum
// their counts onto the earlier list's bucket, the rest pass through, and
// the result is in sorted-signature order — the order buckets are
// explained and reported in.
func joinBuckets(a, b []FailureBucket) []FailureBucket {
	if len(b) == 0 {
		return a
	}
	at := make(map[string]int, len(a)+len(b))
	out := make([]FailureBucket, 0, len(a)+len(b))
	for _, list := range [][]FailureBucket{a, b} {
		for _, bk := range list {
			if i, ok := at[bk.Signature]; ok {
				out[i].Count += bk.Count
				continue
			}
			at[bk.Signature] = len(out)
			out = append(out, bk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// plus adds o's counters to s. Workers is a config echo, not a counter:
// the first part that has one wins. The derived fields are left to
// Result.derive.
func (s Stats) plus(o Stats) Stats {
	if s.Workers == 0 {
		s.Workers = o.Workers
	}
	s.Seeds += o.Seeds
	s.RawExecutions += o.RawExecutions
	s.Detections += o.Detections
	s.ViolatingExecutions += o.ViolatingExecutions
	s.FailedExecutions += o.FailedExecutions
	s.HungExecutions += o.HungExecutions
	s.PlansPruned += o.PlansPruned
	s.PlansDeduped += o.PlansDeduped
	s.PrunedExecuted += o.PrunedExecuted
	s.PruningUnsoundDetections += o.PruningUnsoundDetections
	s.CorpusRegressionPlans += o.CorpusRegressionPlans
	s.CorpusSkippedPlans += o.CorpusSkippedPlans
	s.CorpusInvalidatedSeeds += o.CorpusInvalidatedSeeds
	s.WallNanos += o.WallNanos
	if o.SnapshotFallbacks.total() > 0 {
		fb := *o.SnapshotFallbacks
		if s.SnapshotFallbacks != nil {
			fb.Unsnapshotable += s.SnapshotFallbacks.Unsnapshotable
			fb.StrictPast += s.SnapshotFallbacks.StrictPast
			fb.RestoreError += s.SnapshotFallbacks.RestoreError
			fb.Watchdog += s.SnapshotFallbacks.Watchdog
		}
		s.SnapshotFallbacks = &fb
	}
	if o.Fleet != nil && !o.Fleet.Zero() {
		fleet := *o.Fleet
		if s.Fleet != nil {
			fleet.Add(*s.Fleet)
		}
		s.Fleet = &fleet
	}
	return s
}

// derive recomputes every field that is a function of the rest of the
// Result: the headline (PrimaryCampaign over Seeds), and in Stats the
// distinct-coverage counts, the explanation counters (one bucket, one
// explanation, however many parts explained its signature) and exec/s.
func (r *Result) derive() {
	r.Campaign, r.DetectedSeed = PrimaryCampaign(r.Seeds)
	r.Detected = r.Campaign.Detected
	st := &r.Stats
	st.CoverageClasses, st.NovelSignatures = 0, 0
	if r.cov != nil {
		st.CoverageClasses, st.NovelSignatures = len(r.cov.classes), len(r.cov.sigs)
	}
	st.MinimizeExecutions, st.ExplainedBuckets = 0, 0
	for _, b := range r.Buckets {
		if b.Explanation != nil {
			st.MinimizeExecutions += b.MinimizeExecutions
			st.ExplainedBuckets++
		}
	}
	st.ExecutionsPerSec = 0
	if st.WallNanos > 0 {
		st.ExecutionsPerSec = float64(st.RawExecutions) / (float64(st.WallNanos) / 1e9)
	}
}

// coverage is the pair of sets behind Stats.CoverageClasses and
// Stats.NovelSignatures: every predicted plan class executed and every
// healthy execution's signature (hex). It rides unexported on Result so a
// sweep that keeps no Outcomes (Guided without Collect) still merges its
// distinct counts exactly; a part that crossed a process boundary lost it
// and gets it rebuilt, once, from the Outcomes the farm always collects.
type coverage struct {
	classes, sigs map[string]bool
}

func newCoverage() *coverage {
	return &coverage{classes: map[string]bool{}, sigs: map[string]bool{}}
}

// add records one execution; sig is empty for a failed or hung one, whose
// partial trace must not alias with healthy coverage.
func (c *coverage) add(class, sig string) {
	c.classes[class] = true
	if sig != "" {
		c.sigs[sig] = true
	}
}

// absorb unions r's coverage into c.
func (c *coverage) absorb(r Result) {
	if r.cov == nil {
		for _, o := range r.Outcomes {
			c.add(o.Class, o.Signature)
		}
		return
	}
	for class := range r.cov.classes {
		c.classes[class] = true
	}
	for sig := range r.cov.sigs {
		c.sigs[sig] = true
	}
}
