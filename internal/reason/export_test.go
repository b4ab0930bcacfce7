package reason

// The random instances and the strong-model check of this package's
// tests, for the external tests of the static analyses (analysis_test.go).
var (
	RandomSigma    = randomSigma
	RandomGraph    = randomGraph
	HasAllPatterns = hasAllPatterns
)
