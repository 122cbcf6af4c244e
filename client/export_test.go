package client

// The answer reader, and the switches of the package's own tests, for
// the external tests.
var (
	ScanAnswer   = scanAnswer
	DecodeAnswer = decodeAnswer
)

func RaceEnabled() bool { return raceEnabled }

// SetMaxResponseBytes lowers the response cap and returns the function
// that restores it.
func SetMaxResponseBytes(n int64) (restore func()) {
	old := maxResponseBytes
	maxResponseBytes = n
	return func() { maxResponseBytes = old }
}
