package shard

// setChunk lowers C, the most balls a shard throws between two drains of
// the group's in-process rounds (roundChunk), so that a small test run
// takes several sub-rounds a round. The trajectory must not notice.
func (g *Group) setChunk(c int) { g.chunk = c }
