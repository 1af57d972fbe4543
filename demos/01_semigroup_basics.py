"""
Semigroup invariants from a handful of generators
=================================================

Everything downstream reads off one small table: for each residue class
mod the smallest generator, the least reachable element (the Apery set).
"""

from primefrob import apery_set, atoms, normalize_generators, sylvester_frobenius

# the classic two-coin case first: 3- and 5-cent coins
gens = normalize_generators([3, 5])
profile = apery_set(gens)
print("generators:", tuple(gens))
print("apery set mod 3:", profile.apery.tolist())
print("frobenius number:", profile.frobenius)  # largest unmakeable amount
print("genus (count of gaps):", profile.genus)
print("gaps:", profile.gaps().tolist())

# the closed form for two coprime generators agrees
assert profile.frobenius == sylvester_frobenius(3, 5) == 7

# a bigger set; atoms() strips the redundant generators back out
gens = normalize_generators([8, 9, 10, 11, 17, 26])
profile = apery_set(gens)
at = atoms(profile)
print()
print("generators:", tuple(gens))
print("atoms (the irreducible ones):", at)
print("embedding dimension:", len(at))
print("frobenius:", profile.frobenius, " genus:", profile.genus)

# membership is O(1) per query once the table exists
for n in (25, 26, 27, profile.frobenius, profile.frobenius + 1):
    print(f"  {n} in S?", bool(profile.contains(n)))
