"""Library outputs pinned on clustered graphs.

Every pipeline's result on seeded ``cclose.generators`` graphs, where RR1,
RR2, RR6, RR10, RR16 and the DS gadget fire, is reduced to one sha256: the
trace JSON and the reduced instance of a ``Reduced``, or the answer and
witness of a ``Decided`` or a solver result. Payload tuples keep their
order in the trace JSON, so a change in the order a rule meets vertices or
cliques shows up here, not only a change in what it removes.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from cclose import (
    Bipartition,
    Clique,
    Coloring,
    Decided,
    Graph,
    Instance,
    Problem,
    clique_or_im,
    closure_repair,
    compute_closure,
    crown_from_vclp,
    disjoint_cliques,
    im_dense_bipartite,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    kernelize_im,
    kernelize_im_bipartite,
    kernelize_irs,
    kernelize_is,
    max_matching_general,
    solve_ds,
    solve_tds,
    vclp_half_integral,
)

R = 2


def _graph(case):
    model, *params = case
    return closure_repair(*params) if model == "closure_repair" else disjoint_cliques(*params)


def _witness(w):
    return None if w is None else [w.kind, sorted(w.elements)]


def _outcome_doc(out):
    if isinstance(out, tuple):
        answer, witness = out
        return {"answer": answer, "witness": _witness(witness)}
    if isinstance(out, Decided):
        return {"answer": out.answer, "witness": _witness(out.witness)}
    inst = out.instance
    g = inst.graph
    return {
        "trace": [record.to_json() for record in out.trace],
        "problem": inst.problem.value,
        "vertices": list(g.vertex_ids),
        "edges": g.edges(),
        "k": inst.k,
        "r": inst.r,
        "white": None if inst.coloring is None else sorted(inst.coloring.white_of(g)),
    }


def outputs(case, k):
    """sha256 of each pipeline's outcome on the graph of ``case`` at budget k."""
    g = _graph(case)
    c = compute_closure(g).c
    white = Coloring(frozenset(v for v in g.vertex_ids if v % 3 == 0))
    runs = {
        "kernelize_ds": lambda: kernelize_ds(Instance(problem=Problem.DS, graph=g, k=k), c),
        "kernelize_bwtds": lambda: kernelize_bwtds(
            Instance(problem=Problem.BW_TDS, graph=g, k=k, r=R, coloring=white), c
        ),
        "kernelize_is": lambda: kernelize_is(Instance(problem=Problem.IS, graph=g, k=k), c),
        "kernelize_im": lambda: kernelize_im(Instance(problem=Problem.IM, graph=g, k=k), c),
        "kernelize_irs": lambda: kernelize_irs(Instance(problem=Problem.IRS, graph=g, k=k), c),
        "solve_ds": lambda: solve_ds(g, c, k),
        "solve_tds": lambda: solve_tds(g, c, R, k),
    }
    return {
        name: hashlib.sha256(json.dumps(_outcome_doc(run()), sort_keys=True).encode()).hexdigest()
        for name, run in runs.items()
    }


# The digests were recorded while ``Graph`` still kept each neighbourhood as a
# mutable set and copied it on every derivation, so they pin the outputs
# across the change to shared frozen rows.
GOLDEN = {
    (('closure_repair', 40, 0.2, 3, 1), 1): {
        "kernelize_ds": "7ec0a3b3b077fdea51d9cef9a51ab2fb45c1c6155e49ce1ccb65fc4f2ba2cde9",
        "kernelize_bwtds": "14a395c9be28dbc4100ba3d7a71d92d94e965542bb45e78c8a9c00449d9944b9",
        "kernelize_is": "a08f8577ae82f4d9732764ce924d326c05ffed45fd02518c9e291d7453db1304",
        "kernelize_im": "07962f8c2522dcc9d46b3b85bc9eb14ca2fa083be47867c22a729a289c79e39c",
        "kernelize_irs": "0c51bf5fad018ce09db82e5fb72f1b1dee3e66a2c09b2f2bdcd56611a92dd4c2",
        "solve_ds": "09bfb6f05aae345aaf58e8ca6a7a27af97e07e446d9f079878f245561b951203",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 40, 0.2, 3, 1), 2): {
        "kernelize_ds": "b7c33bf218fb7daabd735bfcdf24f4beec3d09044bc7f0488f538a4e1105da48",
        "kernelize_bwtds": "cb600c22763dca114867c6263febbffe86eac970c163ebde276f4223dd8df596",
        "kernelize_is": "e3b7f90eb39d41133e8978fe7bdd6317b29af86d9f2d967e0ddc4267be439451",
        "kernelize_im": "dffe098c824d3d1dc790bde90d9e504280a322e6bd68135c4e391a4262e2d2f0",
        "kernelize_irs": "78bde990a467226f5887300c6e67ecd71e04e436b6b2a9f5c64240895fddb1e4",
        "solve_ds": "2948d22efd49f9108390f1f88b9c0c57810071dc5ac109ed8f6f2656007d2bac",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 40, 0.15, 4, 3), 1): {
        "kernelize_ds": "ffdcdf20089c16bb00d5d5d8118693d3e34392d19d5fae45cdcee70e488c29f3",
        "kernelize_bwtds": "2f83fffe22aef95722ba0da1e096508404ec26b7dd67c1532ffd2025d0955e6f",
        "kernelize_is": "810f96da65ab680b34056516c8cf7cf7a4ecbb966fb03181accae44f070a5dff",
        "kernelize_im": "c09d804d9b9e86c9e09b9904656c986220663c7297f9f100646e9b7619b97d41",
        "kernelize_irs": "0c51bf5fad018ce09db82e5fb72f1b1dee3e66a2c09b2f2bdcd56611a92dd4c2",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 40, 0.15, 4, 3), 2): {
        "kernelize_ds": "bf13bb985371b21dba3916405432500ba5f3fe0e0659fa3224a19f7cc1a70245",
        "kernelize_bwtds": "7c9911d7c976a3a4ce32e0d52203fb5162960f9c44f06bd853202d8b7d48baf8",
        "kernelize_is": "f517ba53b9e6cdbd4c3ec173823381c2319c8baf29e79e6a81b9d68c395dcf50",
        "kernelize_im": "3996304b48eb1f7ec02f5173641ff8a6c2de1b1fd727c79c40ea7382455a57f5",
        "kernelize_irs": "8463e3651ac2c924303914f67cbb433d4ed3a641a3222da483e87b7c33089994",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 50, 0.1, 3, 4), 1): {
        "kernelize_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_bwtds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_is": "887e26cd3c57b776bbd09b7afeb252e910ddd06322ad5d28a6f28db00b3d1734",
        "kernelize_im": "3c6486e8f0e22a33aad73f448cf44e4dd19bdfe22c63f77aa8b12d7a7ba326e3",
        "kernelize_irs": "0c51bf5fad018ce09db82e5fb72f1b1dee3e66a2c09b2f2bdcd56611a92dd4c2",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 50, 0.1, 3, 4), 2): {
        "kernelize_ds": "7675dbef4a4c28cb3257881255ed3067364173b8a71334c1ae7a2b7d546490e1",
        "kernelize_bwtds": "fe164edbadf8420574f2878743e63002f05b9e6bf506a5062a5b6a975f8d385a",
        "kernelize_is": "28ef95cea0ca45d9b512a80ec925a180fe7d43267f1b1113378455b69b2764cc",
        "kernelize_im": "b8bb1d2546fc2d3e038f5fa767ff74fed9409d444df713cf1a41437507bf44d9",
        "kernelize_irs": "77adc8af415f275fa8a5c8ef9b7d6c7fbcd58c7c94b4cdeed5a1262d21a46a18",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 36, 0.25, 4, 5), 1): {
        "kernelize_ds": "3b7e6ac002ab9f4fce2f95652cdd5736fbba0b68ea4e9a812b6bda332aca3e34",
        "kernelize_bwtds": "597ba46699e90fbed2afa9f7b8f4732fe799bd479e7234bce527d7834a91d62b",
        "kernelize_is": "79eda44ea3cedee19fa7f58185bbd4bed1a740d81217d7be6f7f32e1ba05a98e",
        "kernelize_im": "de8f2538d59fccd719e05c1ab2af5dc3d5d98f8810c3686402ab19d899314a72",
        "kernelize_irs": "0c51bf5fad018ce09db82e5fb72f1b1dee3e66a2c09b2f2bdcd56611a92dd4c2",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('closure_repair', 36, 0.25, 4, 5), 2): {
        "kernelize_ds": "7cf0a109486ab64268ac278bcb20b8d118d8115f62084078e7a872d451e4ce8a",
        "kernelize_bwtds": "3a7c63cb9a869edc580e156db5f7b087b05dc87fef8bdbfa2333cacb05d1eef9",
        "kernelize_is": "264bf8ba70245f75addab2420ec6cf284749503a5a196d066385536915163faa",
        "kernelize_im": "96dfb52943c04a823574bf5d723d674c2b472ed68a003f22dce4bbc4fc970d13",
        "kernelize_irs": "250d558a4bba0a77e6f0707eab7ad61b7337ec6c7e2d458d5f12183d064b9801",
        "solve_ds": "e25903a5b71756cce36b1c27a5038129fa78f2cde259a10ec014936b747897a8",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('disjoint_cliques', 4, 5), 1): {
        "kernelize_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_bwtds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_is": "91e66e139b90e15255cb67e5651f781efe0ab69890d53113afd584cd6b51c4b7",
        "kernelize_im": "8fa3b5fce3f9fdf98a427180a9555c3af715bf27af66d09a9f2d834d73bb676c",
        "kernelize_irs": "0c51bf5fad018ce09db82e5fb72f1b1dee3e66a2c09b2f2bdcd56611a92dd4c2",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
    (('disjoint_cliques', 4, 5), 2): {
        "kernelize_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_bwtds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_is": "cab31187bd5ef6068bb8d080bf86df508b4514a6571a7fa62d93b5875e5c2449",
        "kernelize_im": "815d6bc5039774f5a3bf29eb2a46d37d86f430a7a6e1d9de863765ac03a63005",
        "kernelize_irs": "df0fd16f4a9ee79e6962d89a1b6bb169a538ea14f82780e8d612275c1033a3ae",
        "solve_ds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "solve_tds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
    },
}


@pytest.mark.parametrize("case, k", list(GOLDEN), ids=[f"{case}-k{k}" for case, k in GOLDEN])
def test_library_outputs_match_golden(case, k):
    assert outputs(case, k) == GOLDEN[case, k]


# -- bipartite paths ---------------------------------------------------------------
#
# The bipartite kernels, the dense-bipartite extractor, the crown and the
# unrestricted clique-or-induced-matching chain, pinned on seeded bipartite
# graphs with leaves, where RR9 fires and the LP puts the leaves in V0.


def _bipartite_with_leaves(nl, nr, p, leaves, seed):
    """G(nl, nr, p) between the left ids 0..nl-1 and the right ids
    nl..nl+nr-1, then ``leaves`` new vertices, each hung on a random vertex
    and put on the other side."""
    rng = random.Random(seed)
    n = nl + nr
    edges = [(u, v) for u in range(nl) for v in range(nl, n) if rng.random() < p]
    left = set(range(nl))
    for leaf in range(n, n + leaves):
        anchor = rng.randrange(n)
        edges.append((anchor, leaf))
        if anchor not in left:
            left.add(leaf)
    return Graph(range(n + leaves), edges), Bipartition(frozenset(left))


def _star_forest_with_hubs():
    """55 left centres with 14 leaves each, and 10 right hubs, hub h joined
    to the 4 + h % 3 centres from 5h on: 835 vertices, one more than the
    dense-bipartite bound for b = 2 at degree 16, and a matching of at most
    55 < 2 * 16 * 2, so the extractor takes its König-cover branch. The hubs
    hold the smallest right ids, and hub 0 has 4 covered neighbours, exactly
    where 4 * 4 < 16 starts to fail."""
    edges = [(v, 65 + 14 * v + j) for v in range(55) for j in range(14)]
    edges += [(5 * h + j, 55 + h) for h in range(10) for j in range(4 + h % 3)]
    return Graph(range(65 + 14 * 55), edges), Bipartition(frozenset(range(55)))


def _matching_doc(out):
    if isinstance(out, Clique):
        return {"clique": sorted(out.vertices)}
    return {"edges": sorted(out.edges)}


def _kernel_doc(out):
    doc = _outcome_doc(out)
    if not isinstance(out, Decided):
        inst = out.instance
        doc["left"] = sorted(inst.bipartition.left_of(inst.graph))
    return doc


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def bipartite_kernel_outputs(case, k):
    """sha256 of both bipartite kernels' outcomes (the IM one in each mode)
    on the graph of ``case`` at budget k, whites at the ids not divisible by 3."""
    g, parts = _bipartite_with_leaves(*case)
    c = compute_closure(g).c
    white = Coloring(frozenset(v for v in g.vertex_ids if v % 3))
    bwds = Instance(problem=Problem.BW_TDS, graph=g, k=k, r=1, coloring=white)
    im = Instance(problem=Problem.IM, graph=g, k=k)
    runs = {
        "kernelize_bipartite_bwds": lambda: kernelize_bipartite_bwds(bwds, parts, c),
        "kernelize_im_bipartite_delta": lambda: kernelize_im_bipartite(im, parts, "delta"),
        "kernelize_im_bipartite_closure": lambda: kernelize_im_bipartite(im, parts, "closure", c=c),
    }
    return {name: _digest(_kernel_doc(run())) for name, run in runs.items()}


def extractor_outputs():
    """sha256 of the crown of each kernel case's graph, of the dense-bipartite
    extractor in both its branches and the IM kernels that reach it, and of
    one `clique_or_im` call on a 2-closed graph past its threshold."""
    out = {}
    for case in BIPARTITE_CASES:
        g, _ = _bipartite_with_leaves(*case)
        p = vclp_half_integral(g)
        doc = {"independent": sorted(p.v0), "edges": sorted(crown_from_vclp(g, p).edges)}
        out[f"crown_from_vclp{case}"] = _digest(doc)
    for name, (g, parts) in {
        "matching": _bipartite_with_leaves(100, 100, 0.01, 100, 1),
        "cover": _star_forest_with_hubs(),
    }.items():
        out[f"im_dense_bipartite_{name}"] = _digest(_matching_doc(im_dense_bipartite(g, parts, 2)))
        c = compute_closure(g).c
        for mode in ("delta", "closure"):
            run = kernelize_im_bipartite(Instance(problem=Problem.IM, graph=g, k=2), parts, mode, c=c)
            out[f"kernelize_im_bipartite_{mode}_{name}"] = _digest(_kernel_doc(run))
    g = closure_repair(120, 0.03, 2, 4)
    out["clique_or_im"] = _digest(_matching_doc(clique_or_im(g, 2, max_matching_general(g), 2, 2)))
    return out


BIPARTITE_CASES = [(12, 12, 0.2, 10, 1), (15, 10, 0.15, 12, 2), (10, 14, 0.25, 8, 3)]

BIPARTITE_GOLDEN = {
    ((12, 12, 0.2, 10, 1), 1): {
        "kernelize_bipartite_bwds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_im_bipartite_delta": "27de94e3145fc22057c6c865edce5acb3627f3f0697da52c3a58ac44e0f58d40",
        "kernelize_im_bipartite_closure": "5e9361a3a5d7611fdff17fddcc509f12a91f31caed8c00467a92b30d3213e614",
    },
    ((12, 12, 0.2, 10, 1), 2): {
        "kernelize_bipartite_bwds": "3bc640e823355b2812304a319a3934fc33d95dd61f63860902289dfab96e0d40",
        "kernelize_im_bipartite_delta": "2cbfedcda9a1d909566a38e4db2d2634d914514c5483cb4ac9ccb86b70954275",
        "kernelize_im_bipartite_closure": "2cbfedcda9a1d909566a38e4db2d2634d914514c5483cb4ac9ccb86b70954275",
    },
    ((12, 12, 0.2, 10, 1), 3): {
        "kernelize_bipartite_bwds": "283d3a3bf43f4281e026efc121087105f296dc9de962d650d55cbb3a12c56c10",
        "kernelize_im_bipartite_delta": "e2944549f7378585eb86b13b9eb48a10f339dbd911863d29cd7593238b3b721d",
        "kernelize_im_bipartite_closure": "e2944549f7378585eb86b13b9eb48a10f339dbd911863d29cd7593238b3b721d",
    },
    ((15, 10, 0.15, 12, 2), 1): {
        "kernelize_bipartite_bwds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_im_bipartite_delta": "f06b2ae4f05634b9b01d6898863434c91e4a026f6c29721d8fe8843330b0b19e",
        "kernelize_im_bipartite_closure": "73918b180efec18652899be97cb370e51d015d3433221d3693943c31ae172f2c",
    },
    ((15, 10, 0.15, 12, 2), 2): {
        "kernelize_bipartite_bwds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_im_bipartite_delta": "f3bd116970a87482e0345c129d46d7cce116463a8f8a92d397c406dce22feb4b",
        "kernelize_im_bipartite_closure": "f3bd116970a87482e0345c129d46d7cce116463a8f8a92d397c406dce22feb4b",
    },
    ((15, 10, 0.15, 12, 2), 3): {
        "kernelize_bipartite_bwds": "2ce14f638ab80cd15e5cf91b702676cd27f020a1faea78bd8b804ab31d390cab",
        "kernelize_im_bipartite_delta": "3b0a545d0edf49aa870708c7123cc902c51fece967f9c05ace7ab7c45c8d17f7",
        "kernelize_im_bipartite_closure": "3b0a545d0edf49aa870708c7123cc902c51fece967f9c05ace7ab7c45c8d17f7",
    },
    ((10, 14, 0.25, 8, 3), 1): {
        "kernelize_bipartite_bwds": "34fa97ddb6b735be1dc965ac6a84d7013648ce03be163611f82966a7d467632b",
        "kernelize_im_bipartite_delta": "e8267888aad1ecb2a9d21e6cf97cbf884963edee92ed4329e7547ff1b567aa7c",
        "kernelize_im_bipartite_closure": "938fdf1af811bd0f2061a33f665afd3c24cddeb3fce7ce8a4f9b5b7519ac217a",
    },
    ((10, 14, 0.25, 8, 3), 2): {
        "kernelize_bipartite_bwds": "f86f3a3478994990ada9c03644ff1f92cc4cce9ce53fcf3bcdd81914f6688047",
        "kernelize_im_bipartite_delta": "7e8f65ee32a33461489fe5e5320f18057ae3c08d0fd71f71d15bfdd13704f2be",
        "kernelize_im_bipartite_closure": "7e8f65ee32a33461489fe5e5320f18057ae3c08d0fd71f71d15bfdd13704f2be",
    },
    ((10, 14, 0.25, 8, 3), 3): {
        "kernelize_bipartite_bwds": "0a759ac73a0a1a0b9f3fea5f60f4569a94d0255dd321c24e64367818869c825f",
        "kernelize_im_bipartite_delta": "c1d7762c078c1c81f4d908583a6927f97965c8bc9cb8c11d91c1a6d6ae5997cf",
        "kernelize_im_bipartite_closure": "c1d7762c078c1c81f4d908583a6927f97965c8bc9cb8c11d91c1a6d6ae5997cf",
    },
}

EXTRACTOR_GOLDEN = {
    "crown_from_vclp(12, 12, 0.2, 10, 1)": "215a70b5617773ea8d778e4a24b7ccb828887660bb5e544ea6cbde06b5755e1a",
    "crown_from_vclp(15, 10, 0.15, 12, 2)": "2b8b0127c2960903d3654578657f5677bd834abfbbfe58f4b9b282ffd3601c73",
    "crown_from_vclp(10, 14, 0.25, 8, 3)": "de6157d10444c36ce41ab1dbbf9546ee291fc676164dcb39ea384f4eda465483",
    "im_dense_bipartite_matching": "155551c62c13be62890e6fe996d17e89c177529919f61c4c09f2359c30ba8dea",
    "kernelize_im_bipartite_delta_matching": "4993393df7d57d06a441b6e72de998f2efbb5b031ef9f11c9f73454a05a7bfa9",
    "kernelize_im_bipartite_closure_matching": "70d43f7283fca723bd5602e8bf23a9af0f456951b721a264165c4bbeed9d32a7",
    "im_dense_bipartite_cover": "b63a35116e825acad6610cbb7b4d92ca2679463edbbd89d8ab52b88816bed834",
    "kernelize_im_bipartite_delta_cover": "70742cd07eabcb28965c30029cfdf85f71b6583488b8740a92adbefc78cb37e5",
    "kernelize_im_bipartite_closure_cover": "70742cd07eabcb28965c30029cfdf85f71b6583488b8740a92adbefc78cb37e5",
    "clique_or_im": "f3ce6b1aca0e0c348346fdba1df17060f60825dcd34936bc58e09fd150a583dc",
}


@pytest.mark.parametrize(
    "case, k", list(BIPARTITE_GOLDEN), ids=[f"{case}-k{k}" for case, k in BIPARTITE_GOLDEN]
)
def test_bipartite_kernel_outputs_match_golden(case, k):
    assert bipartite_kernel_outputs(case, k) == BIPARTITE_GOLDEN[case, k]


def test_extractor_outputs_match_golden():
    assert extractor_outputs() == EXTRACTOR_GOLDEN
