"""Degree-0 uniformly finite homology of deck groups, on their Cayley graphs.

The central decision procedure, :func:`decide_class`, decides whether a
bounded class function on a supported deck group vanishes in the
coinvariant quotient, and emits a machine-checkable certificate:

* ``nonzero-by-mean``: exact Folner averages approaching a nonzero limit
  (amenable groups; any invariant mean sends the class to that limit);
* ``zero-by-boundary``: an explicit integer 1-chain whose boundary equals
  the function on a stated region (dipole paths plus geodesic rays);
* ``zero-by-truncated-flow``: integral flows of uniform capacity pushing
  the mass to spheres of several radii (nonamenable groups).  This is
  finite evidence consistent with, not a proof of, the infinite
  certificate; reports state that explicitly.

On an amenable group, finite or infinite, one rule picks between the first
two: the class vanishes exactly when every invariant mean sends it to 0
(Block-Weinberger), and that value is the average on a finite group and the
constant part on an infinite one.

Every certificate re-verifies independently: the verifier recomputes the
boundary or the averages from scratch and compares exactly.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction

from .classes import (ClassCertificate, ClassFunction, GraphChain, _chain_to_payload,
                      _payload_to_chain)
from .errors import InputError, InternalError, ResourceError
from .groups import FiniteGroup, MarkedGroup, folner_average


# ---------------------------------------------------------------------------
# Isoperimetry


def isoperimetric_probe(group: MarkedGroup, radii) -> list:
    """Exact outer vertex-boundary ratios |dB_r| / |B_r| per radius.

    The outer boundary of B_r is the sphere S_{r+1}, read from the group's
    indexed ball: its next sphere below the ball's radius, its outside
    products at that radius.
    """
    radii = sorted(radii)
    if not radii:
        return []
    group.check_radius(radii[0])  # a negative radius is no prefix
    ball = group.indexed_ball(radii[-1])
    rows = []
    for r in radii:
        size = ball.ends[r]
        boundary = ball.ends[r + 1] - size if r < ball.radius else ball.outside
        rows.append({"radius": r, "ball": size, "boundary": boundary,
                     "ratio": Fraction(boundary, size)})
    return rows


# ---------------------------------------------------------------------------
# Bounding 1-chains on Cayley graphs

RAY_MARGIN = 6  # residual mass is routed this far past the support


def _geodesic_ray_step(group: MarkedGroup, v):
    """A generator token extending v to a strictly longer element."""
    length = group.length(v)
    for t in sorted(group._signed_tokens(), key=lambda t: 2 * abs(t) + (t < 0)):
        if group.length(group.multiply_token(v, t)) == length + 1:
            return t
    raise InternalError("no geodesic extension found; group is finite?")


def _geodesic_path(group: MarkedGroup, a, b):
    """Vertex path from a to b along a canonical geodesic word."""
    word = group.element_word(group.multiply(group.inverse(a), b))
    path = [a]
    for t in word:
        path.append(group.multiply_token(path[-1], t))
    if path[-1] != b:
        raise InternalError("geodesic path did not reach its target")
    return path


def bound_finite_mass(group: MarkedGroup, c: ClassFunction):
    """Explicit 1-chain b with boundary equal to a finitely supported c.

    Opposite-sign masses are first cancelled along geodesic paths (sorted
    deterministically), which makes the certificate global whenever the
    total mass is zero, as on a finite group (a nonzero invariant mean, there
    a nonzero total, is refused).  Any single-signed residue is routed along
    geodesic rays toward infinity; the rays are truncated at the stated
    region radius and the boundary then matches c on the region interior,
    with the residue on the boundary sphere.  Edge coefficients are bounded
    by the total mass of c.

    Returns ``(chain, region_radius, interior_radius)``.
    """
    if c.constant != 0:
        raise InputError("bound_finite_mass needs a finitely supported function")
    if _invariant_mean(group, c):
        raise InputError("the invariant mean is nonzero, so no bounded chain bounds it")
    chain = GraphChain(group)
    masses = {g: v for g, v in c.finite.items() if v}
    support_radius = max((group.length(g) for g in masses), default=0)
    region_radius = support_radius + RAY_MARGIN

    pos = sorted((g for g, v in masses.items() if v > 0), key=group.sort_key)
    neg = sorted((g for g, v in masses.items() if v < 0), key=group.sort_key)
    remaining = dict(masses)
    # pair opposite signs along geodesic paths
    for p in pos:
        for q in neg:
            if remaining[p] == 0:
                break
            if remaining[q] == 0:
                continue
            move = min(remaining[p], -remaining[q])
            path = _geodesic_path(group, q, p)
            for u, v in zip(path, path[1:]):
                chain.add_edge(u, v, move)
            remaining[p] -= move
            remaining[q] += move
    # route the residue along rays toward infinity
    for g, v in sorted(remaining.items(), key=lambda kv: group.sort_key(kv[0])):
        if v == 0:
            continue
        ray = [g]
        while group.length(ray[-1]) < region_radius:
            ray.append(group.multiply_token(ray[-1], _geodesic_ray_step(group, ray[-1])))
        # boundary of sum of ray edges is (far end) - g; scale by -v to
        # deposit +v at g and push -v onto the sphere
        for u, w in zip(ray, ray[1:]):
            chain.add_edge(u, w, -v)
    interior_radius = region_radius - 1
    bound = chain.max_coefficient()
    if bound > sum(abs(v) for v in masses.values()):
        raise InternalError("routing exceeded the total-mass coefficient bound")
    return chain, region_radius, interior_radius


# ---------------------------------------------------------------------------
# Exact integral max-flow (Dinic's blocking flows, warm-started)

def _max_flow(adj, head, cap, s: int, t: int) -> int:
    """Raise the s-t flow held in the residual ``cap`` to a maximum.

    Dinic's algorithm: BFS levels over arcs with residual capacity, then a
    blocking flow along level-increasing arcs by an iterative DFS with one
    current-arc pointer per vertex.  Arcs come in pairs ``a``, ``a ^ 1``;
    ``head[a]`` is the target of arc ``a`` and ``adj[v]`` lists the arcs
    leaving ``v``.  ``cap`` is updated in place; returns the added value.
    """
    n = len(adj)
    added = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue and level[t] < 0:
            v = queue.popleft()
            lv = level[v] + 1
            for a in adj[v]:
                if cap[a] > 0 and level[head[a]] < 0:
                    level[head[a]] = lv
                    queue.append(head[a])
        if level[t] < 0:
            return added
        pointer = [0] * n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                added += push
                # resume from the tail of the first saturated arc
                k = next(k for k, a in enumerate(path) if cap[a] == 0)
                del path[k:]
                v = head[path[-1]] if path else s
                continue
            arcs = adj[v]
            i = pointer[v]
            nxt = level[v] + 1
            while i < len(arcs) and (cap[arcs[i]] == 0
                                     or level[head[arcs[i]]] != nxt):
                i += 1
            pointer[v] = i
            if i < len(arcs):
                path.append(arcs[i])
                v = head[arcs[i]]
            elif v == s:
                break
            else:
                level[v] = -1  # dead end for the rest of this phase
                v = head[path.pop() ^ 1]
                pointer[v] += 1


class BallFlows:
    """The two commodities' flow networks on ball(radius) of a group, which
    are their own flow certificate.

    Vertex ids are the indexed ball's ids below ``ends[radius]``; the source
    and the sink come after them.  The first arc pairs are the ball edges,
    each arc with the uniform capacity; then one source arc per inner vertex
    where c is nonzero, and one sink arc per sphere vertex.  Both
    commodities share the arcs and keep separate residuals.  The network
    starts at capacity 0; :meth:`raise_to` adds to both arcs of every ball
    edge and resumes from the current residual, since a feasible flow stays
    feasible as capacities grow.
    """

    def __init__(self, group: MarkedGroup, c: ClassFunction, radius: int):
        ball = group.indexed_ball(radius)
        n = ball.ends[radius]
        inner = ball.ends[radius - 1] if radius > 0 else 0
        if inner == n:
            raise InputError("sphere is empty; the group is too small for this radius")
        source, sink = n, n + 1
        adj: list[list[int]] = [[] for _ in range(n + 2)]
        head: list[int] = []

        def arc_pair(u, v):
            adj[u].append(len(head))
            head.append(v)
            adj[v].append(len(head))
            head.append(u)

        for i in range(n):
            seen = []
            for row in ball.rows:
                j = row[i]
                if i < j < n and j not in seen:
                    seen.append(j)
                    arc_pair(i, j)
        self.edge_arcs = len(head)
        values = [c.value(ball.elements[i]) for i in range(inner)]
        supplied = [i for i in range(inner) if values[i]]
        for i in supplied:
            arc_pair(source, i)
        for i in range(inner, n):
            arc_pair(i, sink)
        sources = slice(self.edge_arcs, self.edge_arcs + 2 * len(supplied), 2)
        sinks = slice(sources.stop, len(head), 2)
        unbounded = sum(abs(values[i]) for i in supplied)
        self.caps = {}
        self.want = {}
        for sign in (1, -1):
            supply = [max(sign * values[i], 0) for i in supplied]
            cap = [0] * len(head)
            cap[sources] = supply
            cap[sinks] = [unbounded] * (n - inner)
            self.caps[sign] = cap
            self.want[sign] = sum(supply)
        self.value = {1: 0, -1: 0}
        self.group, self.ball, self.radius = group, ball, radius
        self.adj, self.head, self.source, self.sink = adj, head, source, sink
        self.capacity = 0

    @property
    def deficit(self) -> int:
        return sum(self.want[s] - self.value[s] for s in (1, -1))

    @property
    def feasible(self) -> bool:
        return not self.deficit

    @property
    def chain(self) -> GraphChain | None:
        """The certificate chain of a feasible network, built when read: the
        net edge flow reversed, since flow leaving a vertex deposits mass
        there.  ``None`` while a deficit remains."""
        if self.deficit:
            return None
        chain = GraphChain(self.group)
        elements, head = self.ball.elements, self.head
        plus, minus = self.caps[1], self.caps[-1]
        for a in range(0, self.edge_arcs, 2):
            # arc a carries capacity - residual from head[a + 1] to head[a]
            # in each commodity
            coeff = minus[a] - plus[a]
            if coeff:
                chain.add_edge(elements[head[a]], elements[head[a + 1]], coeff)
        return chain

    def raise_to(self, capacity: int) -> None:
        """Grow the edge capacity to ``capacity`` and re-maximize both flows."""
        delta = capacity - self.capacity
        if delta < 0:
            raise InternalError("flow capacities only grow")
        self.capacity = capacity
        for sign, cap in self.caps.items():
            for a in range(self.edge_arcs):
                cap[a] += delta
            if self.value[sign] < self.want[sign]:
                self.value[sign] += _max_flow(self.adj, self.head, cap,
                                              self.source, self.sink)


def flow_certificate(group: MarkedGroup, c: ClassFunction, radius: int,
                     capacity: int, capacity_budget: int = 64) -> BallFlows:
    """Integral flow pushing the masses of c to the radius-R sphere.

    Every vertex of the ball is a source with supply c(v); positive and
    negative masses are routed separately (two commodities on the same
    capacities) and subtracted, so the resulting 1-chain has boundary c on
    ball(R-1).  Edge capacity is per commodity.  Infeasibility reports the
    max-flow deficit.  The group's ball budget bounds the radius.
    """
    if capacity > capacity_budget:
        raise ResourceError(f"flow capacity {capacity} exceeds budget "
                            f"{capacity_budget} (--capacity)")
    flows = BallFlows(group, c, radius)
    flows.raise_to(capacity)
    return flows


def _capacity_search(group: MarkedGroup, c: ClassFunction, radii,
                     capacity_budget: int):
    """Smallest capacity feasible at every radius, with its networks.

    Capacities rise one at a time; each radius keeps one warm-started
    network, and a capacity stops at its first infeasible radius.  Returns
    ``(capacity, networks)`` in radius order, or ``(None, None)`` when no
    capacity within the budget works.
    """
    group.indexed_ball(max(radii))  # one ball serves every radius
    nets: dict = {}
    for capacity in range(1, capacity_budget + 1):
        for r in radii:
            if r not in nets:
                nets[r] = BallFlows(group, c, r)
            net = nets[r]
            if net.deficit:
                net.raise_to(capacity)
            if net.deficit:
                break
        else:
            return capacity, [nets[r] for r in radii]
    return None, None


def minimal_flow_capacity(group: MarkedGroup, c: ClassFunction,
                          radius: int, capacity_budget: int = 64) -> int:
    """Smallest uniform capacity with a feasible flow at ``radius``."""
    capacity, _ = _capacity_search(group, c, [radius], capacity_budget)
    if capacity is None:
        raise ResourceError(f"no feasible capacity up to {capacity_budget} "
                            "(--capacity)")
    return capacity


# ---------------------------------------------------------------------------
# Certificates and the decision procedure

MEAN_INDICES = (1, 2, 4, 8)  # Folner indices of a nonzero-by-mean certificate


def _generator_steps(group: MarkedGroup, chain: GraphChain) -> bool:
    """Whether every edge of the chain joins two generator neighbours."""
    steps = set(group._token_elements.values())
    return all(group.multiply(group.inverse(u), v) in steps
               for u, v in chain.edges)


def _invariant_mean(group: MarkedGroup, f: ClassFunction):
    """The value every invariant mean gives f: its average on a finite
    group, its constant part on an infinite amenable group, and ``None`` on
    a nonamenable group, which has no invariant mean and where every class
    vanishes (Block-Weinberger).  [f] is zero exactly when this is falsy."""
    if isinstance(group, FiniteGroup):
        return Fraction(sum(f.value(g) for g in group.elements()), group.order)
    return Fraction(f.constant) if group.amenable else None


def verify_certificate(cert: ClassCertificate) -> dict:
    """Independent re-verification; recomputes everything exactly."""
    group = cert.group
    f = cert.function
    parse = functools.cache(group.parse_word)  # each distinct payload word once
    result = {"verified": False, "checks": []}

    def check(name, ok, detail=""):
        result["checks"].append({"name": name, "ok": bool(ok), "detail": detail})

    def require(name, ok):
        # a well-formedness condition is listed only when it fails, so the
        # checks of a sound certificate are its numerical comparisons
        if not ok:
            check(name, False)

    # the verdict follows from the group and f alone; the payload is
    # evidence for it, never its source
    mean = _invariant_mean(group, f)
    if cert.verdict == "nonzero-by-mean":
        scheme = group.folner_scheme(int(cert.payload.get("collar_radius", 1)))
        limit = Fraction(cert.payload["limit"])
        check("limit nonzero", limit != 0)
        require("limit equals the invariant mean", limit == mean)
        averages = cert.payload["averages"] if scheme else []
        require("averages are present", bool(averages))
        mass = f.finite_mass()
        for row in averages:
            t = int(row["t"])
            avg = folner_average(scheme, f, t)
            check(f"average at t={t} recomputed", Fraction(row["average"]) == avg,
                  str(avg))
            size = len(scheme.set_at(t))
            check(f"average at t={t} within mass bound",
                  abs(avg - limit) <= Fraction(mass, size))
    elif cert.verdict == "zero-by-boundary":
        require("invariant mean vanishes", not mean)
        chain = _payload_to_chain(group, cert.payload["chain"], parse)
        bdry = chain.boundary()
        if isinstance(group, FiniteGroup):  # bounded outright, not in a limit
            interior = set(group.elements())
        elif f.constant:
            interior = group.ball(int(cert.payload["interior_radius"]))
        else:
            # off both supports the boundary and f are 0, so only the points
            # of the supports can differ; a canonical element lies in
            # ball(R) when its word length is at most R
            radius = int(cert.payload["interior_radius"])
            group.check_radius(radius)
            interior = {v for v in bdry.keys() | f.finite.keys()
                        if group.length(v) <= radius}
        check("boundary equals function on interior",
              all(bdry.get(v, 0) == f.value(v) for v in interior))
        require("interior contains the support", set(f.finite) <= interior)
        require("chain edges are generator steps", _generator_steps(group, chain))
        stated = int(cert.payload["coefficient_bound"])
        check("coefficient bound holds", chain.max_coefficient() <= stated)
    elif cert.verdict == "zero-by-truncated-flow":
        cap = int(cert.payload["capacity"])
        flows = cert.payload["flows"]
        # truncated flows exist on every group once the capacity is large
        # enough; they witness vanishing only where the group is
        # nonamenable (Block-Weinberger)
        require("group is nonamenable", not group.amenable)
        require("flows are present", bool(flows))
        require("flow radii match the stated radii",
                [int(row["radius"]) for row in flows]
                == [int(r) for r in cert.payload.get("radii", ())])
        for row in flows:  # the radii nest, so the rows share words
            radius = int(row["radius"])
            chain = _payload_to_chain(group, row["chain"], parse)
            bdry = chain.boundary()
            interior = group.ball(radius - 1)
            ok = all(bdry.get(v, 0) == f.value(v) for v in interior)
            check(f"flow boundary matches on ball({radius - 1})", ok)
            require(f"flow edges are generator steps at R={radius}",
                    _generator_steps(group, chain))
            # per-commodity capacity allows a combined coefficient of 2C
            check(f"flow coefficients within 2x capacity at R={radius}",
                  chain.max_coefficient() <= 2 * cap)
    else:
        check("inconclusive verdicts carry no proof", True)
    result["verified"] = all(c["ok"] for c in result["checks"])
    return result


def decide_class(group: MarkedGroup, f: ClassFunction,
                 flow_radii=None, capacity_budget: int = 16) -> ClassCertificate:
    """Decide vanishing of [f] in the coinvariants of bounded functions.

    One rule, read off the value every invariant mean gives f: a
    nonamenable group has no invariant mean and gets uniform-capacity
    truncated flows; a nonzero mean gets exact Folner averages tending to
    it; a zero mean leaves a finitely supported f (on a finite group, of
    zero total), which an explicit bounding 1-chain bounds.
    """
    if f.group != group:
        raise InputError("function lives on a different group")
    mean = _invariant_mean(group, f)
    if mean is None:
        if flow_radii is None:
            flow_radii = (2, 3, 4) if group.kind == "surface" else (3, 4, 5, 6)
        if not flow_radii:
            raise InputError("flow certificates need at least one radius")
        capacity, rows = _capacity_search(group, f, flow_radii, capacity_budget)
        if rows is None:
            return ClassCertificate(
                "inconclusive", group, f,
                payload={"note": "no uniform capacity found within budget",
                         "radii": list(flow_radii)})
        cert = ClassCertificate(
            "zero-by-truncated-flow", group, f,
            payload={
                "capacity": capacity,
                "radii": list(flow_radii),
                "flows": [{"radius": r.radius,
                           "chain": _chain_to_payload(group, r.chain)}
                          for r in rows],
                "note": ("uniform capacity across the stated radii; finite "
                         "evidence consistent with, not a proof of, the "
                         "infinite certificate"),
            })
    elif mean:
        scheme = group.folner_scheme()
        averages = [{"t": t, "average": f"{folner_average(scheme, f, t)}"}
                    for t in MEAN_INDICES]
        cert = ClassCertificate(
            "nonzero-by-mean", group, f,
            payload={"limit": f"{mean}", "collar_radius": 1,
                     "averages": averages})
    else:
        chain, region, interior = bound_finite_mass(group, f)
        cert = ClassCertificate(
            "zero-by-boundary", group, f,
            payload={"chain": _chain_to_payload(group, chain),
                     "region_radius": region,
                     "interior_radius": interior,
                     "coefficient_bound": f.finite_mass()})
    cert.verifier_result = verify_certificate(cert)
    if not cert.verifier_result["verified"]:
        raise InternalError("emitted certificate failed its own verification")
    return cert
