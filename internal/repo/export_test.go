package repo

// SetAfterStat installs fn to run inside Fetch between the fstat and
// the read, where an out-of-band edit is most harmful.
func (f *FS) SetAfterStat(fn func()) { f.afterStat = fn }
