# Merges `go tool covdata func` output (stdin, "-") into the surface
# ledger (the first file argument) and prints the new ledger: the
# ledger's header comments, then one line per production function
# outside bench/ that ran 0.0% on every surface, in source order, with
# the tag its old line carried ("untagged" when it had none). Lines for
# functions that now run, or no longer exist, are left out.
FNR == NR {
	if ($0 ~ /^#/ || $0 == "") { if (!body) print; next }
	body = 1
	rest = $0
	sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", rest)
	tag[$1 " " $2] = rest
	next
}
$NF == "0.0%" && $1 ~ /^repro\// && $1 !~ /^repro\/bench\// {
	file = $1
	sub(/^repro\//, "", file)
	sub(/:[0-9]+:$/, "", file)
	key = file " " $2
	printf "%-34s %-34s %s\n", file, $2, (key in tag) ? tag[key] : "untagged"
}
