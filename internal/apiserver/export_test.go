package apiserver

// IsConflict reports whether err is a ResourceVersion conflict.
func IsConflict(err error) bool { return matchesSentinel(err, ErrConflict) }

// IsAlreadyExists reports whether err signals a name collision on create.
func IsAlreadyExists(err error) bool { return matchesSentinel(err, ErrAlreadyExists) }

// IsNotFound reports whether err signals an absent object.
func IsNotFound(err error) bool { return matchesSentinel(err, ErrNotFound) }

// IsNotReady reports whether err is a not-ready rejection.
func IsNotReady(err error) bool { return matchesSentinel(err, ErrNotReady) }
