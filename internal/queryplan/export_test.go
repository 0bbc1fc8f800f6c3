package queryplan

// RankExhaustive exposes the exhaustive-oracle ranking to the external
// parity tests.
var RankExhaustive = rankExhaustive
