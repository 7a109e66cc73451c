package api

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSeedZeroRoundTrip is the regression for the seed-0 hole: an explicit
// {"seed": 0} must survive a JSON round-trip as zero, stay distinct from
// an absent seed, and produce its own cache key.
func TestSeedZeroRoundTrip(t *testing.T) {
	var q Request
	if err := json.Unmarshal([]byte(`{"seed":0}`), &q); err != nil {
		t.Fatal(err)
	}
	if q.Seed == nil || *q.Seed != 0 {
		t.Fatalf("seed 0 decoded as %v", q.Seed)
	}
	if q.SeedValue() != 0 {
		t.Fatalf("SeedValue() = %d, want 0", q.SeedValue())
	}
	out, err := json.Marshal(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"seed":0`) {
		t.Fatalf("seed 0 dropped on marshal: %s", out)
	}

	var absent Request
	if err := json.Unmarshal([]byte(`{}`), &absent); err != nil {
		t.Fatal(err)
	}
	if absent.Seed != nil {
		t.Fatalf("absent seed decoded as %v", *absent.Seed)
	}
	if absent.SeedValue() != 1 {
		t.Fatalf("absent SeedValue() = %d, want the default 1", absent.SeedValue())
	}
	if absent.CacheKey("verify") == q.CacheKey("verify") {
		t.Fatal("seed 0 and absent seed share a cache key")
	}

	// Canonicality across the pointer change: absent and explicit seed 1
	// remain one cache entry.
	one := Request{Seed: SeedPtr(1)}
	if absent.CacheKey("verify") != one.CacheKey("verify") {
		t.Fatal("absent seed and explicit seed 1 diverged")
	}
}

// TestShardKeying: the shard prefix renders canonically, participates in
// the cache key only when set, and distinct shards get distinct keys.
func TestShardKeying(t *testing.T) {
	if got := ShardID([]int{2, 0, 11}); got != "2.0.11" {
		t.Fatalf("ShardID = %q", got)
	}
	if got := ShardID(nil); got != "" {
		t.Fatalf("ShardID(nil) = %q", got)
	}
	base := Request{N: 2, R: 4}
	withNil := base
	withNil.ShardPrefix = nil
	if base.CacheKey("verify/shard") != withNil.CacheKey("verify/shard") {
		t.Fatal("nil shard prefix changed the key")
	}
	a, b := base, base
	a.ShardPrefix = []int{0}
	b.ShardPrefix = []int{1}
	if a.CacheKey("verify/shard") == base.CacheKey("verify/shard") {
		t.Fatal("shard prefix absent from the key")
	}
	if a.CacheKey("verify/shard") == b.CacheKey("verify/shard") {
		t.Fatal("distinct shards share a key")
	}
	if !strings.Contains(a.CacheKey("verify/shard"), "|shard=0") {
		t.Fatalf("key missing shard segment: %s", a.CacheKey("verify/shard"))
	}
}

// cacheKeyOracle is CacheKey's former fmt-based body, kept as the oracle
// the strconv implementation must reproduce byte for byte.
func cacheKeyOracle(q *Request, op string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|topo=%s,n=%d,m=%d,r=%d,ports=%d,levels=%d", op, q.Topo, q.N, q.M, q.R, q.Ports, q.Levels)
	fmt.Fprintf(&b, "|routing=%s,spray=%d", q.Routing, q.SprayWidth)
	fmt.Fprintf(&b, "|mode=%s,trials=%d,seed=%d,maxexh=%d,fb=%t", q.Mode, q.Trials, q.SeedValue(), q.MaxExhaustive, q.FirstBlocked)
	fmt.Fprintf(&b, "|restarts=%d,steps=%d", q.Restarts, q.Steps)
	fmt.Fprintf(&b, "|pattern=%s,flits=%d,pkts=%d,arbiter=%s,open=%t", q.Pattern, q.Flits, q.Pkts, q.Arbiter, q.OpenLoop)
	if len(q.ShardPrefix) > 0 {
		var sb strings.Builder
		for i, d := range q.ShardPrefix {
			if i > 0 {
				sb.WriteByte('.')
			}
			fmt.Fprintf(&sb, "%d", d)
		}
		fmt.Fprintf(&b, "|shard=%s", sb.String())
	}
	if len(q.SymShard) == 2 {
		fmt.Fprintf(&b, "|symshard=%s", fmt.Sprintf("sym.%d.%d", q.SymShard[0], q.SymShard[1]))
	}
	if q.Failures != nil {
		fr := q.Failures
		fmt.Fprintf(&b, "|failures=%s,max=%d,samples=%d,ftrials=%d,schemes=%s,fsim=%t",
			fr.Scenario, fr.MaxFailures, fr.Samples, fr.Trials, strings.Join(fr.Schemes, "+"), fr.Sim)
	}
	return b.String()
}

// TestAppendCacheKeyMatchesOracle draws seeded random requests that set
// every field CacheKey reads — nil and explicit (zero, negative) seeds,
// shard prefixes, sym shards of both lengths, failures blocks with zero to
// several schemes, both values of every bool, negative and extreme ints —
// and checks CacheKey, AppendCacheKey on a reused non-empty buffer, and the
// shard-ID helpers against the fmt oracle.
func TestAppendCacheKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"", "ftree", "mnt", "dest-mod", "auto", "random", "round-robin", "a|b=c,d", "ünïcode"}
	word := func() string { return words[rng.Intn(len(words))] }
	num := func() int {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -rng.Intn(1000)
		case 2:
			return math.MaxInt - rng.Intn(3)
		case 3:
			return math.MinInt + rng.Intn(3)
		}
		return rng.Intn(100000)
	}
	ints := func(k int) []int {
		if k == 0 {
			return nil
		}
		out := make([]int, k)
		for i := range out {
			out[i] = num()
		}
		return out
	}
	buf := []byte("stale prefix")
	for i := 0; i < 2000; i++ {
		q := &Request{
			Topo: word(), N: num(), M: num(), R: num(), Ports: num(), Levels: num(),
			Routing: word(), SprayWidth: num(),
			Mode: word(), Trials: num(), MaxExhaustive: num(), FirstBlocked: rng.Intn(2) == 0,
			Restarts: num(), Steps: num(),
			Pattern: word(), Flits: num(), Pkts: num(), Arbiter: word(), OpenLoop: rng.Intn(2) == 0,
			ShardPrefix: ints(rng.Intn(4)), SymShard: ints(rng.Intn(4)),
			// Execution controls stay out of the key; set them anyway.
			Workers: num(), SymReduce: rng.Intn(2) == 0, TimeoutMs: int64(num()), NoCache: rng.Intn(2) == 0,
		}
		if rng.Intn(3) > 0 {
			q.Seed = SeedPtr(int64(num()))
		}
		if rng.Intn(2) == 0 {
			q.Failures = &FailuresRequest{
				Scenario: word(), MaxFailures: num(), Samples: num(), Trials: num(), Sim: rng.Intn(2) == 0,
			}
			for k := rng.Intn(4); k > 0; k-- {
				q.Failures.Schemes = append(q.Failures.Schemes, word())
			}
		}
		op := word()
		want := cacheKeyOracle(q, op)
		if got := q.CacheKey(op); got != want {
			t.Fatalf("request %d: CacheKey\n got %q\nwant %q", i, got, want)
		}
		buf = q.AppendCacheKey(buf[:0], op)
		if string(buf) != want {
			t.Fatalf("request %d: AppendCacheKey on a reused buffer\n got %q\nwant %q", i, buf, want)
		}
	}
	if got := ShardID(nil); got != "" {
		t.Errorf("ShardID(nil) = %q", got)
	}
	if got := ShardID([]int{2, 0, -1}); got != "2.0.-1" {
		t.Errorf("ShardID = %q", got)
	}
	if got := SymShardID(2, 5); got != "sym.2.5" {
		t.Errorf("SymShardID = %q", got)
	}
}
