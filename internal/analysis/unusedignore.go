package analysis

// UnusedIgnore reports phantomvet:ignore directives that no longer
// suppress anything.
//
// A suppression is a standing claim: "this line violates <analyzer>
// and we accept that, because <reason>". When the code under it is
// later fixed or deleted, the directive outlives its claim — and a
// stale ignore is worse than none, because the next reader assumes the
// violation is still there, and the next violation on that line is
// silently absorbed. The engine tracks, for every directive and every
// analyzer name it lists, whether a diagnostic was actually suppressed
// during the run; names that stayed idle (for analyzers that ran) are
// reported here, as is any name that matches no analyzer in the suite
// at all (a typo'd ignore suppresses nothing and never will).
//
// This is a pseudo-analyzer: the Run hook is empty because the check
// is a property of a whole suite run, not of the syntax tree — the
// engine (Run) computes the findings from the directive
// usage it recorded and attributes them to this analyzer's name. It
// lives in the suite so `-list` shows it, `-run unusedignore` selects
// it, and phantomvet:ignore can — in the limit — suppress it.
var UnusedIgnore = &Analyzer{
	Name: "unusedignore",
	Doc: "report phantomvet:ignore directives that suppressed nothing: the named analyzer ran clean on the line " +
		"(stale suppression) or does not exist (typo); delete or fix the directive",
	Applies: func(pkgPath, filename string) bool { return true },
	Run:     func(pass *Pass) {},
}
