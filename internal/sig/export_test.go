package sig

// CountOf makes Of and OfParts report the length of each input they
// hash to f until the returned function is called. Set it before the
// code under test starts and restore it after that code has stopped.
func CountOf(f func(n int)) (restore func()) {
	ofHook = f
	return func() { ofHook = nil }
}
