package core

// ParseFast and DecodeProblem expose ParseProblem's two decoders to the
// external tests, which compare them.
var (
	ParseFast     = parseFast
	DecodeProblem = decodeProblem
)
