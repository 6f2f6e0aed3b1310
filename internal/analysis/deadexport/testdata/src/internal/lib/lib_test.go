package lib

func useTestOnly() int { return TestOnly() }
