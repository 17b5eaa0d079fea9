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

Truncated flows run on one arc table per indexed ball, whose prefixes are
the networks of the smaller radii.  Supplies are excess on their vertices
and the sphere absorbs flow, so a network has no source or sink; a
push-relabel from the distance labels (a vertex's distance to the sphere)
maximizes it, warm-started as the capacity grows.

Every certificate re-verifies independently: the verifier recomputes the
boundary or the averages from scratch and compares exactly.  Flow rows are
read off the network's arcs and checked on the integer ids of the group's
indexed ball: each payload word is located once, and a generator step is
read from the ball's product rows.
"""

from __future__ import annotations

import functools
import weakref
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter

from .classes import (ClassCertificate, ClassFunction, GraphChain, _chain_to_payload,
                      _payload_to_chain)
from .errors import InputError, InternalError, ResourceError
from .groups import FiniteGroup, MarkedGroup, folner_average


# ---------------------------------------------------------------------------
# Isoperimetry


def isoperimetric_probe(group: MarkedGroup, radii) -> list:
    """Exact outer vertex-boundary ratios |dB_r| / |B_r| per radius.

    The outer boundary of B_r is the sphere S_{r+1}.  For the largest
    radius R asked, the probe reads the group's indexed ball of radius at
    least max(R - 1, 0): |B_r| and the spheres inside the ball from its
    ``ends``, and the next two spheres from its ``outer`` count, so it never
    builds ball(R) or ball(R + 1) itself.  A radius past the group's ball
    budget is refused, as if the ball of that radius were asked for.
    """
    radii = sorted(radii)
    if not radii:
        return []
    group.check_radius(radii[0])  # a negative radius is no prefix
    group.check_radius(radii[-1])
    ball = group.indexed_ball(max(radii[-1] - 1, 0))
    ends = ball.ends
    if radii[-1] >= ball.radius:  # S_{R+1} lies past the ball
        one, two = ball.outer
        ends = ends + [ends[-1] + one, ends[-1] + one + two]
    rows = []
    for r in radii:
        size = ends[r]
        boundary = ends[r + 1] - size
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

    key = group.key_of.__getitem__
    pos = sorted((g for g, v in masses.items() if v > 0), key=key)
    neg = sorted((g for g, v in masses.items() if v < 0), key=key)
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
    for g, v in sorted(remaining.items(), key=lambda kv: key(kv[0])):
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
# Exact integral max-flow (push-relabel from the distance labels)

_ARC_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _arc_table(ball, radius: int):
    """``(head, adj, stop)``: the edges of ``ball`` as arc pairs, listed once
    per ball and extended as larger radii are asked.

    Edge ``e`` is ``(i, j)`` with ``i < j`` and ``i`` in ball(R - 1), R the
    largest radius asked, listed by ``i`` and then in token order, each
    once (two tokens can name one product).  Arc ``2e`` runs up to
    ``head[2e] = j`` and arc ``2e + 1`` back down to ``head[2e + 1] = i``;
    ``adj[v]`` lists the arcs leaving ``v``.  The network of ``radius`` is
    the arc prefix ``range(stop)``, the edges of its ball(radius - 1), and
    holds ``adj[v]`` of every ``v`` there.
    """
    head, adj, stops = _ARC_TABLES.get(ball, ([], [[]], [0]))  # stop per radius
    if len(stops) > radius:
        return head, adj, stops[radius]
    # a racing thread extends its own copy
    head, adj, stops = head[:], [arcs[:] for arcs in adj], stops[:]
    ends, rows = ball.ends, ball.rows
    for r in range(len(stops), radius + 1):
        adj += ([] for _ in range(len(adj), ends[r]))
        for i in range(ends[r - 2] if r > 1 else 0, ends[r - 1]):
            up = []
            for row in rows:
                j = row[i]
                if j > i and j not in up:
                    up.append(j)
                    adj[i].append(len(head))
                    adj[j].append(len(head) + 1)
                    head += j, i
        stops.append(len(head))
    _ARC_TABLES[ball] = head, adj, stops
    return head, adj, stops[radius]


class BallFlows:
    """The two commodities' flows on ball(radius) of a group, which are
    their own flow certificate.

    Both commodities share the first ``edge_arcs`` arcs of the ball's
    :func:`_arc_table`, each arc with the uniform capacity, and keep
    separate residuals ``caps[sign]``.  A commodity's supply is its
    ``excess[sign]`` on the vertices of ball(radius - 1), and the sphere
    absorbs what reaches it, so the network has no source or sink.  It
    starts at capacity 0; :meth:`raise_to` adds to every arc and pushes
    the remaining excess again, since a flow stays feasible as capacities
    grow.  The excess left where no residual path reaches the sphere is
    the :attr:`deficit`; :attr:`relabels` counts the push-relabel work.  A
    feasible network's :attr:`payload` is its certificate rows.
    """

    def __init__(self, group: MarkedGroup, c: ClassFunction, radius: int):
        ball = group.indexed_ball(radius)
        inner = ball.ends[radius - 1] if radius > 0 else 0
        if inner == ball.ends[radius]:
            raise InputError("sphere is empty; the group is too small for this radius")
        self.head, self.adj, self.edge_arcs = _arc_table(ball, radius)
        values = [c.value(g) for g in ball.elements[:inner]]
        self.caps = {sign: [0] * self.edge_arcs for sign in (1, -1)}
        self.excess = {sign: [max(sign * v, 0) for v in values] for sign in (1, -1)}
        self.group, self.ball, self.radius = group, ball, radius
        self.capacity = 0
        self.relabels = 0

    @property
    def deficit(self) -> int:
        return sum(map(sum, self.excess.values()))

    @property
    def feasible(self) -> bool:
        return not self.deficit

    @property
    def payload(self) -> list | None:
        """The certificate rows of a feasible network, read off the edge arcs
        when read; ``None`` while a deficit remains.

        Edge arc ``a`` runs from id ``head[a + 1]`` up to ``head[a]`` and
        carries capacity less residual in each commodity.  Its net flow
        reversed (flow leaving a vertex deposits mass there) is the row
        ``[word, word, plus - minus]``.  On F_n, Z^n and the surface groups
        the id order is the shortlex order a :class:`GraphChain` keeps:
        their Cayley graphs are bipartite (every relator has even length)
        and a ball word is as long as its distance, so an edge joins
        consecutive spheres.
        """
        if self.deficit:
            return None
        word, elements, head = self.group.word_of, self.ball.elements, self.head
        plus, minus = self.caps[1], self.caps[-1]
        rows = [[word[elements[head[a + 1]]], word[elements[head[a]]], plus[a] - minus[a]]
                for a in range(0, self.edge_arcs, 2) if plus[a] != minus[a]]
        return sorted(rows, key=itemgetter(0, 1))

    def raise_to(self, capacity: int) -> None:
        """Grow the edge capacity to ``capacity`` and re-maximize both flows."""
        delta = capacity - self.capacity
        if delta < 0:
            raise InternalError("flow capacities only grow")
        self.capacity = capacity
        for sign, cap in self.caps.items():
            cap[:] = [r + delta for r in cap]
            if any(self.excess[sign]):
                self._discharge(cap, self.excess[sign])

    def _discharge(self, cap: list, excess: list) -> None:
        """Push-relabel until no excess can reach the sphere.

        Labels start at ``radius - dist``, the distance to the sphere, which
        is a valid labelling of any residual: an edge joins spheres at most
        one apart.  Active vertices are discharged highest label first, ties
        in id order, so the first sweep runs in id order; each pushes along
        its arcs in order to a vertex one label lower, and relabels to one
        above its lowest residual neighbour.  A vertex keeps its excess once
        its label reaches n, the ball's size; so does every vertex above a
        label that a relabel leaves empty (a gap), since a residual path to
        the sphere lowers the label by at most one per arc.
        """
        ball, radius, adj, head = self.ball, self.radius, self.adj, self.head
        n = ball.ends[radius]
        inner = len(excess)
        label = [radius - d for d in ball.dist[:n]]
        count = [0] * (n + 1)  # vertices per label below n
        for d in label:
            count[d] += 1
        # key (n - label) * n + v pops highest label first, then lowest id;
        # ids ascend with dist, so the initial keys are sorted, a heap
        heap = [(n - label[v]) * n + v for v in range(inner) if excess[v]]
        while heap:
            v = heappop(heap) % n
            d = label[v]
            if d == n:  # cut off by a gap while queued
                continue
            e, arcs = excess[v], adj[v]
            while True:
                low = d - 1
                for a in arcs:
                    r = cap[a]
                    if r and label[head[a]] == low:
                        w = head[a]
                        push = r if r < e else e
                        cap[a] = r - push
                        cap[a ^ 1] += push
                        if w < inner:
                            if not excess[w]:
                                heappush(heap, (n - low) * n + w)
                            excess[w] += push
                        e -= push
                        if not e:
                            break
                if not e:
                    break
                self.relabels += 1
                count[d] -= 1
                if not count[d]:  # a gap at d
                    for u in range(inner):
                        if d < label[u] < n:
                            count[label[u]] -= 1
                            label[u] = n
                    d = n
                    break
                d = 1 + min((label[head[a]] for a in arcs if cap[a]), default=n)
                if d >= n:
                    d = n
                    break
                count[d] += 1
            excess[v] = e
            label[v] = d


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
    """Whether every edge (u, v) of the chain joins two generator
    neighbours: some signed token t has ``multiply_token(u, t) == v``, and
    trying every t covers an edge stored in either direction."""
    tokens = group._signed_tokens()
    return all(any(group.multiply_token(u, t) == v for t in tokens)
               for u, v in chain.edges)


def _ball_locator(group: MarkedGroup, ball):
    """``locate(word)``: the id in ``ball`` of the element a payload word
    names, or -1 when it lies outside the ball.

    The spelled word is walked from the identity through the ball's rows,
    which hold exact products of ball(R - 1) and -1 on the last sphere.  A
    word that names an unknown symbol, or a spelling that leaves ball(R - 1)
    before its last step, is parsed (which refuses the unknown symbol) and
    its element's canonical word walked instead: the prefixes of a ball
    element's canonical word before its last step lie in ball(R - 1)."""
    row_of = dict(zip(group._signed_tokens(), ball.rows))
    by_name = {name: row_of[t] for name, t in group._token_table.items()}

    def walk(steps) -> int:
        i = 0
        for row in steps:
            i = -1 if row is None else row[i]
            if i < 0:
                break
        return i

    def locate(text: str) -> int:
        i = walk([by_name.get(symbol) for symbol in text.split()])
        if i < 0:
            word = group.element_word(group.parse_word(text))
            i = walk([row_of[t] for t in word])
        return i
    return locate


def _invariant_mean(group: MarkedGroup, f: ClassFunction):
    """The value every invariant mean gives f: its average on a finite
    group, its constant part on an infinite amenable group, and ``None`` on
    a nonamenable group, which has no invariant mean and where every class
    vanishes (Block-Weinberger).  [f] is zero exactly when this is falsy."""
    if isinstance(group, FiniteGroup):
        return Fraction(sum(f.value(g) for g in group.elements()), group.order)
    return Fraction(f.constant) if group.amenable else None


def verify_certificate(cert: ClassCertificate) -> dict:
    """Independent re-verification; recomputes everything exactly.

    A flow certificate is checked on the ids of ``indexed_ball(R)`` for its
    largest radius R, the ball its decision built.  Each distinct payload
    word is located once (:func:`_ball_locator`); each row's edges are
    summed per unordered id pair, its boundary is an integer list compared
    with f on ``range(ends[R - 1])``, and an edge (i, j) is a generator
    step when j is among the entries ``rows[k][i]`` (i < j).  The rows of
    the last sphere are -1, so an edge joining two of its vertices fails
    that check; the Cayley graphs of F_n and the surface groups are
    bipartite and have no such edge.  An edge with an end outside the
    row's ball(R) fails "flow edges lie in ball(R)" and is left out of the
    other checks.
    """
    group = cert.group
    f = cert.function
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
        chain = _payload_to_chain(group, cert.payload["chain"],
                                  functools.cache(group.parse_word))  # each word once
        bdry = chain.boundary()
        if isinstance(group, FiniteGroup):  # bounded outright, not in a limit
            interior = set(group.elements())
        else:
            radius = int(cert.payload["interior_radius"])
            region = cert.payload.get("region_radius")  # where the rays end
            require("region radius is the interior radius plus one",
                    region == radius + 1)
            if f.constant:  # no finite chain bounds it, as its mean says
                interior = group.ball(radius)
            else:
                # off both supports the boundary and f are 0, so only the
                # points of the supports can differ; a canonical element
                # lies in ball(R) when its word length is at most R
                group.check_radius(radius)
                lengths = {v: group.length(v) for v in bdry.keys() | f.finite.keys()}
                interior = {v for v, n in lengths.items() if n <= radius}
                # past the interior f is 0 off its support (which must lie
                # inside, below), and so is the boundary, a pairing path's
                # points among them, except on the region sphere
                require("boundary vanishes past the interior, off the region "
                        "sphere",
                        not any(radius < lengths[v] != region
                                for v in bdry if v not in f.finite))
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
        radii = [int(row["radius"]) for row in flows]
        require("flow radii match the stated radii",
                radii == [int(r) for r in cert.payload.get("radii", ())])
        for radius in radii:  # ball(R - 1) must exist, so R >= 1
            group.check_radius(radius - 1)
        ball = group.indexed_ball(max(radii, default=0))  # the decision's own
        locate = functools.cache(_ball_locator(group, ball))  # each word once
        rows, ends = ball.rows, ball.ends
        values: list = []  # f on the ball's ids, as far as a row needs it
        for row, radius in zip(flows, radii):
            n, inner = ends[radius], ends[radius - 1]
            summed: dict = {}  # coefficient per unordered id pair
            inside = True
            for u_word, v_word, coeff in row["chain"]:
                i, j, coeff = locate(u_word), locate(v_word), int(coeff)
                if not coeff:
                    continue
                if not (0 <= i < n and 0 <= j < n):
                    inside = False
                    continue
                if j < i:
                    i, j, coeff = j, i, -coeff
                summed[i, j] = summed.get((i, j), 0) + coeff
            bdry = [0] * n
            for (i, j), coeff in summed.items():
                bdry[i] -= coeff
                bdry[j] += coeff
            values += map(f.value, ball.elements[len(values):inner])
            check(f"flow boundary matches on ball({radius - 1})",
                  bdry[:inner] == values[:inner])
            require(f"flow edges lie in ball({radius})", inside)
            require(f"flow edges are generator steps at R={radius}",
                    all(j in [r[i] for r in rows]
                        for (i, j), coeff in summed.items() if coeff))
            # per-commodity capacity allows a combined coefficient of 2C
            check(f"flow coefficients within 2x capacity at R={radius}",
                  max(map(abs, summed.values()), default=0) <= 2 * cap)
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
                payload={"note": f"no uniform capacity up to {capacity_budget} "
                                 "(--capacity)",
                         "radii": list(flow_radii)})
        cert = ClassCertificate(
            "zero-by-truncated-flow", group, f,
            payload={
                "capacity": capacity,
                "radii": list(flow_radii),
                "flows": [{"radius": r.radius,
                           "chain": r.payload} for r in rows],
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
