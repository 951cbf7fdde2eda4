package server

import (
	"fmt"
	"strconv"
	"strings"
)

// StatsInfo is the typed view of a STATS payload. Role is one of
// "standalone" (no replication line), "leader", "follower", or
// "coordinator" (shard router). Fields that the role's payload does not
// carry are zero; Raw always holds the verbatim lines for anything the
// typed view does not model.
type StatsInfo struct {
	Role string

	// server line (absent on a coordinator, which renders cluster instead).
	Conns    int
	Policy   string
	QueueCap int
	Seq      uint64
	Updates  uint64
	Events   uint64
	Dropped  uint64
	Evicted  uint64

	// follower link state (Role == "follower").
	Leader     string
	Connected  bool
	AppliedLSN uint64
	LeaderLSN  uint64
	Lag        uint64

	// leader fan-out (Role == "leader", durable mode).
	Followers []FollowerStat

	// coordinator totals and per-shard health (Role == "coordinator").
	ShardsTotal int
	ShardsAlive int
	Shards      []ShardStat

	// mqo line: sub-pattern sharing counters (DESIGN.md §17). A server
	// reports its own engine; a coordinator reports the sum of its shards'
	// last-probed counters.
	MQO MQOStat

	Queries []QueryStat
	Raw     []string
}

// MQOStat is the "mqo ..." line: the multi-query sharing state of an
// engine (or, on a coordinator, the aggregate over shards).
type MQOStat struct {
	SubPatterns   int
	Shared        int
	Refs          int
	MaintainRuns  uint64
	SavedEvals    uint64
	SharedReplays uint64
}

// FollowerStat is one "follower ..." line on a leader.
type FollowerStat struct {
	Conn       uint64
	Addr       string
	AppliedLSN uint64
	Lag        uint64
	Catchup    bool
}

// ShardStat is one "shard ..." line on a coordinator.
type ShardStat struct {
	ID      int
	Addr    string
	Alive   bool
	Queries int
	Seq     uint64
	Lag     uint64
	PingUs  int64
	Misses  int
	// Sub-pattern sharing state from the shard's last STATS probe.
	SubPatterns int
	Refs        int
	SavedEvals  uint64
}

// QueryStat is one "query ..." line. A server reports match counters and
// the heap bytes the query's DCG holds; a coordinator reports the shard
// placement (Shard is -1 when the payload has no placement, i.e. on a
// plain server).
type QueryStat struct {
	Name  string
	Pos   int64
	Neg   int64
	Held  int64
	Subs  int
	Shard int
}

// StatsInfo fetches STATS and parses it into the typed view.
func (c *Client) StatsInfo() (StatsInfo, error) {
	lines, err := c.Stats()
	if err != nil {
		return StatsInfo{}, err
	}
	return ParseStats(lines)
}

// ParseStats parses STATS payload lines into the typed view. Unknown
// line kinds are preserved in Raw and otherwise ignored, so the parser
// stays forward-compatible with new counters.
func ParseStats(lines []string) (StatsInfo, error) {
	info := StatsInfo{Role: "standalone", Raw: lines}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		p := kvParser{line: line, kv: parseKV(fields[1:])}
		switch fields[0] {
		case "server":
			info.Conns = int(p.uint("conns"))
			info.Policy = p.kv["policy"]
			info.QueueCap = int(p.uint("queue_cap"))
			info.Seq = p.uint("seq")
			info.Updates = p.uint("updates")
			info.Events = p.uint("events")
			info.Dropped = p.uint("dropped")
			info.Evicted = p.uint("evicted")
		case "cluster":
			info.Role = "coordinator"
			info.ShardsTotal = int(p.uint("shards"))
			info.ShardsAlive = int(p.uint("alive"))
			info.Seq = p.uint("seq")
			info.Updates = p.uint("updates")
			info.Events = p.uint("events")
			info.Conns = int(p.uint("conns"))
		case "replica":
			switch p.kv["role"] {
			case "follower":
				info.Role = "follower"
				info.Leader = p.kv["leader"]
				info.Connected = p.bool("connected")
				info.AppliedLSN = p.uint("applied_lsn")
				info.LeaderLSN = p.uint("leader_lsn")
				info.Lag = p.uint("lag")
			case "leader":
				info.Role = "leader"
			default:
				return StatsInfo{}, fmt.Errorf("server: bad replica role in %q", line)
			}
		case "follower":
			info.Followers = append(info.Followers, FollowerStat{
				Conn:       p.uint("conn"),
				Addr:       p.kv["addr"],
				AppliedLSN: p.uint("applied_lsn"),
				Lag:        p.uint("lag"),
				Catchup:    p.bool("catchup"),
			})
		case "shard":
			if len(fields) < 2 {
				return StatsInfo{}, fmt.Errorf("server: bad shard line %q", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return StatsInfo{}, fmt.Errorf("server: bad shard id in %q", line)
			}
			p.kv = parseKV(fields[2:])
			info.Shards = append(info.Shards, ShardStat{
				ID:          id,
				Addr:        p.kv["addr"],
				Alive:       p.bool("alive"),
				Queries:     int(p.uint("queries")),
				Seq:         p.uint("seq"),
				Lag:         p.uint("lag"),
				PingUs:      p.int("ping_us"),
				Misses:      int(p.uint("misses")),
				SubPatterns: int(p.uint("subpats")),
				Refs:        int(p.uint("refs")),
				SavedEvals:  p.uint("saved"),
			})
		case "mqo":
			info.MQO = MQOStat{
				SubPatterns:   int(p.uint("subpats")),
				Shared:        int(p.uint("shared")),
				Refs:          int(p.uint("refs")),
				MaintainRuns:  p.uint("maintain"),
				SavedEvals:    p.uint("saved"),
				SharedReplays: p.uint("replays"),
			}
		case "query":
			if len(fields) < 2 {
				return StatsInfo{}, fmt.Errorf("server: bad query line %q", line)
			}
			p.kv = parseKV(fields[2:])
			q := QueryStat{
				Name:  fields[1],
				Pos:   p.int("pos"),
				Neg:   p.int("neg"),
				Held:  p.int("held"),
				Subs:  int(p.uint("subs")),
				Shard: -1,
			}
			if _, ok := p.kv["shard"]; ok {
				q.Shard = int(p.int("shard"))
			}
			info.Queries = append(info.Queries, q)
		}
		if p.err != nil {
			return StatsInfo{}, p.err
		}
	}
	return info, nil
}

// parseKV splits "k=v" fields; fields without '=' are dropped.
func parseKV(fields []string) map[string]string {
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

// kvParser reads typed values out of one line's k=v fields, remembering
// the first malformed value (missing keys read as zero).
type kvParser struct {
	line string
	kv   map[string]string
	err  error
}

func (p *kvParser) uint(key string) uint64 {
	v, ok := p.kv[key]
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("server: bad %s in %q", key, p.line)
	}
	return n
}

func (p *kvParser) int(key string) int64 {
	v, ok := p.kv[key]
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("server: bad %s in %q", key, p.line)
	}
	return n
}

func (p *kvParser) bool(key string) bool {
	v, ok := p.kv[key]
	if !ok {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("server: bad %s in %q", key, p.line)
	}
	return b
}
