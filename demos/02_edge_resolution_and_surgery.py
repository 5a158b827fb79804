"""Edge resolution and surgery.

Resolving an edge uv deletes it and hangs one new loose edge at u and one
at v, so every vertex keeps its degree while the cycle structure loosens.
The class changes, but only through the radius-1 neighborhood of the edge;
surgery exploits that to compute any connected graph's class by resolving
everything outside a spanning tree and then reading off the closed tree
formula.
"""

from f1zeta import L, LooseGraph, class_of, corpus, resolution_difference, surgery, tree_class

print("=" * 72)
print("1. Resolving the central edge of the diamond")
print("=" * 72)
diamond = corpus.diamond()
uv = next(e.tag for e in diamond.full_edges if e.ends == ("u", "v"))
resolved = diamond.resolve_edge(uv)
print(f"before: {class_of(diamond).render('L')}")
print(f"after : {class_of(resolved).render('L')}")
print(f"degrees unchanged: {diamond.degrees() == resolved.degrees()}")
print()
print("The difference is computable purely locally:")
local = resolution_difference(diamond, uv)
print(f"  local difference  = {local.render('L')}")
print(f"  global difference = {(class_of(diamond) - class_of(resolved)).render('L')}")
print()
print("It splits by the link: C = N(u) ∩ N(v) and the plain graph G[C] on it.")
u, v = diamond.edge(uv).ends
common = diamond.neighbors(u) & diamond.neighbors(v)
link = LooseGraph(common, [e.ends for e in diamond.full_edges if set(e.ends) <= common])
print(f"  C = {sorted(common)}, class_of(G[C]) = {class_of(link).render('L')}")
# The cliques {u, v} ∪ A, A empty or a clique of G[C], disappear.
link_part = (1 - L) * L ** len(common) + (1 - L) ** 2 * class_of(link)
# Each clique {z} ∪ A, z = u or v, loses the other end from its common
# closed neighbourhood S.
endpoint_part = 0 * L
for z in (u, v):
    for clique in link.cliques():
        k = len(clique)
        hood = frozenset.intersection(*map(diamond.closed_neighborhood, (z, *clique)))
        endpoint_part -= (1 - L) ** (k + 1) * L ** (len(hood) - k - 2)
print(f"  link part     (1-L)L^|C| + (1-L)^2 [G[C]] = {link_part.render('L')}")
print(f"  endpoint part -sum (1-L)^(|A|+1) L^(|S|-|A|-2) = {endpoint_part.render('L')}")
total = link_part + endpoint_part
print(f"  their sum = {total.render('L')}; equals the local and global differences: "
      f"{total == local == class_of(diamond) - class_of(resolved)}")

print()
print("=" * 72)
print("2. The closed formula for loose trees")
print("=" * 72)
tree = corpus.path_graph(4)
stats = tree.tree_stats()
print(f"path on 4 vertices: degree counts {stats.degree_counts}, "
      f"interior excess {stats.interior_excess}, endpoints {stats.endpoints}")
print(f"  tree formula: {tree_class(tree).render('L')}")
print(f"  inclusion-exclusion: {class_of(tree).render('L')}")

print()
print("=" * 72)
print("3. Surgery on the complete graph K_4, step by step")
print("=" * 72)
k4 = corpus.complete_graph(4)
poly, trace = surgery(k4)
print(f"spanning tree edge tags: {sorted(trace.spanning_tree)}")
for i, step in enumerate(trace.steps, start=1):
    u, v = step.ends
    print(f"  step {i}: resolve {u}-{v} inside ball {sorted(step.ball)}, "
          f"difference {step.difference.render('L')}")
print(f"final loose tree class: {trace.final_tree_class.render('L')}")
print(f"surgery total : {poly.render('L')}")
print(f"direct route  : {class_of(k4).render('L')}")

print()
print("=" * 72)
print("4. The answer ignores the spanning tree and the resolution order")
print("=" * 72)
from itertools import permutations

results = set()
runs = 0
for tree_tags in corpus.all_spanning_trees(k4):
    extra = [e.tag for e in k4.full_edges if e.tag not in tree_tags]
    for order in permutations(extra):
        results.add(surgery(k4, tree=tree_tags, order=order)[0])
        runs += 1
print(f"{runs} surgery runs over all 16 spanning trees, "
      f"{len(results)} distinct result(s): {next(iter(results)).render('L')}")
