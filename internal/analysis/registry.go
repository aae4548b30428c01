package analysis

// All returns every constvet analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BudgetLoop,
		DeadlineFlow,
		ErrClass,
		ErrFlow,
		FsyncOrder,
		LockHold,
		MapIter,
		NilMetrics,
		RawGo,
		Walltime,
	}
}

// ByName resolves an analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
