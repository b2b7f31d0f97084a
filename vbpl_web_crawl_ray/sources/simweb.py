"""Deterministic simulated web (FIXTURES.md F3) — the hermetic stand-in for
vbpl.vn / anle.toaan.gov.vn.

Every page is a PURE FUNCTION of (config, url): fetch actors need no shared
page store, so the sim scales to any URL count and any parallelism while
staying byte-deterministic. The URL shapes, listing pagination, attribute
tables, related-document links and robots/politeness knobs mirror the
reference's crawl surface (listing pages app/service/vbpl.py:116-144,
detail tabs app/helper/enum.py:9-17, attribute tables vbpl.py:610-618,
related-doc tabs vbpl.py:654-704) without copying any of its code.

URL space per host ``host{k}.test``:
  /robots.txt                     politeness + disallow rules
  /listing.aspx?Page={n}          listing of docs_per_page docs (1-based n)
  /doc.aspx?ItemID={id}           detail page: attributes, caption, image, links
  /img/{id}.{png|jpeg}            encoded image payload (sources/imaging.py)
  /private/...                    robots-disallowed (must be blocked, counted)
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass

from ..functions.hashing import hash64_one
from .imaging import encode_image, gen_pixels

# The sim portal's fixed "today": document states are a pure function of
# (dates, SIM_NOW) so crawls are deterministic across real time (the
# reference derives state vs datetime.now(), app/service/vbpl.py:875-892).
SIM_NOW = _dt.date(2024, 1, 1)


@dataclass
class SimWebConfig:
    n_hosts: int = 4
    pages_per_host: int = 3
    docs_per_page: int = 5
    captions: tuple[str, ...] = ()          # caption source (documents.text)
    crawl_delays: tuple[float, ...] = (1.0, 2.0, 3.0, 0.5)
    seed: int = 42
    flaky_rate: float = 0.1                 # fraction of doc URLs 500-ing once
    missing_rate: float = 0.05              # fraction of doc links that 404
    missing_fulltext_rate: float = 0.0      # phapquy docs whose page lacks the
                                            # toanvan div -> parse falls back to
                                            # the search.test fuzzy recovery
                                            # (M10, reference vbpl.py:459-470)
    missing_dates_rate: float = 0.0         # phapquy docs whose page omits the
                                            # effective-date row + vbInfo block
                                            # -> the crawler recovers dates and
                                            # state from the concetti.test JSON
                                            # API (J4, reference vbpl.py:806-920)
    anle_files_per_doc: int = 0             # >0 -> anle detail pages carry
                                            # 2..(1+this) div#filetaive file
                                            # links instead of inline text;
                                            # filenames embed '(doc_id)-' the
                                            # crawler must parse back out to
                                            # re-key sections (reference
                                            # anle.py:107-120,193-204,262)
    cross_host_every: int = 7               # every k-th doc links cross-host
    hot_host_factor: int = 1                # host 0 gets factor x pages (skew knob)
    img_min: int = 32                       # min image dimension
    img_range: int = 97                     # dims drawn from [img_min, img_min+img_range)
    paginate_via_links: bool = False        # anle-style: seed page 1 only,
                                            # discover page n+1 via a 'next' link
                                            # (unknown-length pagination, S5)
    flavors: tuple[str, ...] = ("phapquy", "anle")
                                            # host k serves flavors[k % len]:
                                            # the reference's three portals
                                            # (phapquy vbpl.vn, anle
                                            # toaan.gov.vn, hopnhat
                                            # vbpl.py:514-573)

    def docs_per_host(self, k: int) -> int:
        return self.pages_per_host_of(k) * self.docs_per_page

    def pages_per_host_of(self, k: int) -> int:
        return self.pages_per_host * (self.hot_host_factor if k == 0 else 1)

    @property
    def doc_base(self) -> int:
        # id space stride per host; generous so hot host fits
        return self.pages_per_host * self.hot_host_factor * self.docs_per_page * 2

    def host_of_doc(self, doc_id: int) -> int:
        return doc_id // self.doc_base

    def delay_of(self, k: int) -> float:
        return self.crawl_delays[k % len(self.crawl_delays)]

    def total_docs(self) -> int:
        return sum(self.docs_per_host(k) for k in range(self.n_hosts))


_URL_RE = re.compile(
    r"^https?://host(?P<host>\d+)\.test(?P<path>/[^?]*)(?:\?(?P<query>.*))?$")
_SEARCH_RE = re.compile(r"^https?://search\.test/search\.aspx\?q=(?P<q>.*)$")
_CONCETTI_RE = re.compile(
    r"^https?://concetti\.test/documents/search\?(?P<q>.*)$")
_SERIAL_RE = re.compile(r"^(\d+)/QĐ-TTg$")


class SimWeb:
    """Servable simulated web. ``get(url)`` -> (status, content_type, body)."""

    def __init__(self, cfg: SimWebConfig):
        self.cfg = cfg

    # ---- deterministic per-url properties ----

    def _caption(self, doc_id: int) -> str:
        caps = self.cfg.captions
        if not caps:
            return f"Văn bản số {doc_id} về điều hành thử nghiệm"
        return caps[doc_id % len(caps)]

    def _fmt(self, doc_id: int) -> str:
        return "png" if hash64_one(f"fmt{doc_id}") % 2 == 0 else "jpeg"

    def _dims(self, doc_id: int) -> tuple[int, int]:
        h = hash64_one(f"dims{doc_id}")
        lo, r = self.cfg.img_min, self.cfg.img_range
        return lo + int(h % r), lo + int((h >> 8) % r)

    def is_flaky(self, url: str, attempt: int) -> bool:
        """True -> this attempt returns 500 (succeeds on retry; S2 semantics,
        reference app/service/anle.py:38-57)."""
        if attempt > 0:
            return False
        return (hash64_one("flaky" + url) % 10_000) < self.cfg.flaky_rate * 10_000

    def _is_missing_doc(self, doc_id: int) -> bool:
        return (hash64_one(f"missing{doc_id}") % 10_000) < self.cfg.missing_rate * 10_000

    def missing_fulltext(self, doc_id: int) -> bool:
        """True -> this phapquy doc's page omits the toanvancontent div; a
        crawler must recover the text from the secondary search host."""
        return (hash64_one(f"noft{doc_id}") % 10_000
                < self.cfg.missing_fulltext_rate * 10_000)

    def missing_dates(self, doc_id: int) -> bool:
        """True -> this phapquy doc's page omits the effective/gazette date
        rows AND the vbInfo state block; the crawler's concetti JSON-API
        enrichment is the only way to recover them (the reference runs
        search_concetti exactly to fill such gaps, vbpl.py:806-920)."""
        return (hash64_one(f"nodates{doc_id}") % 10_000
                < self.cfg.missing_dates_rate * 10_000)

    def doc_dates(self, doc_id: int) -> dict:
        """Deterministic full date set + portal state for one document
        (the reference's persisted surface, app/model/vbpl.py:7-27:
        issuance/effective/expiration/gazette dates + state). The
        issuance triple keeps the original formula so existing pins stay
        valid; the rest derive from a second hash. State is the 3-valued
        rule vs SIM_NOW (vbpl.py:875-892 semantics)."""
        h = hash64_one(f"date{doc_id}")
        day, month, year = 1 + h % 28, 1 + (h >> 8) % 12, 2000 + (h >> 16) % 24
        iss = _dt.date(int(year), int(month), int(day))
        h2 = hash64_one(f"date2:{doc_id}")
        if h2 % 20 == 0:                    # a slice not yet in effect
            eff = iss + _dt.timedelta(days=3000 + int(h2 >> 8) % 3000)
        else:
            eff = iss + _dt.timedelta(days=15 + int((h2 >> 8) % 45))
        gaz = (iss + _dt.timedelta(days=int((h2 >> 16) % 10))
               if (h2 >> 24) % 5 else None)
        exp = (eff + _dt.timedelta(days=365 + int((h2 >> 32) % 730))
               if (h2 >> 44) % 10 < 3 else None)
        if SIM_NOW < eff:
            state = "Chưa có hiệu lực"
        elif exp is not None and SIM_NOW >= exp:
            state = "Hết hiệu lực"
        else:
            state = "Có hiệu lực"
        return {"issuance": iss, "effective": eff, "gazette": gaz,
                "expiration": exp, "state": state,
                "applicable_information": f"Thông tin áp dụng {doc_id % 3}"}

    def img_moved(self, doc_id: int) -> bool:
        """~10% of images 404 at the primary path and live at the fallback
        /img-alt/ path — exercises the reference's multi-tab first-success
        attachment probe (M11, app/service/vbpl.py:996-1046)."""
        return hash64_one(f"moved{doc_id}") % 10 == 0

    def related_ids(self, doc_id: int) -> list[tuple[int, str]]:
        """Deterministic related-document edges (doc-map analogue)."""
        cfg = self.cfg
        k = cfg.host_of_doc(doc_id)
        n = cfg.docs_per_host(k)
        base = k * cfg.doc_base
        local = doc_id - base
        out = []
        if n > 1:
            out.append((base + (local + 1) % n, "sửa đổi"))
        if doc_id % cfg.cross_host_every == 0 and cfg.n_hosts > 1:
            other = (k + 1) % cfg.n_hosts
            tgt = other * cfg.doc_base + (local % cfg.docs_per_host(other))
            out.append((tgt, "liên quan"))
        return out

    # ---- page bodies ----

    def _robots_body(self, k: int) -> bytes:
        return (f"User-agent: *\nDisallow: /private/\n"
                f"Crawl-delay: {self.cfg.delay_of(k)}\n").encode()

    def _listing_body(self, k: int, page: int) -> bytes:
        cfg = self.cfg
        base = k * cfg.doc_base
        start = (page - 1) * cfg.docs_per_page
        rows = []
        for j in range(start, min(start + cfg.docs_per_page, cfg.docs_per_host(k))):
            doc_id = base + j
            title = self._caption(doc_id)[:60]
            # every 6th listing entry links through the legacy short URL,
            # which 301-redirects to the canonical doc URL — crawlers must
            # follow without double-fetching the target
            href = (f"/d.aspx?ItemID={doc_id}" if doc_id % 6 == 0
                    else f"/doc.aspx?ItemID={doc_id}")
            rows.append(
                f'<p class="title"><a href="{href}">{title}</a></p>'
                f'<div class="des">Trích yếu {doc_id}</div>')
        # canonicalization trap: duplicate link in non-canonical form
        if rows:
            trap_id = base + start
            rows.append(f'<p class="title"><a href="HTTP://HOST{k}.TEST:80'
                        f'/x/../doc.aspx?ItemID={trap_id}">trap</a></p>')
        # robots-blocked link
        rows.append(f'<a href="/private/secret{page}">private</a>')
        if cfg.paginate_via_links and page < cfg.pages_per_host_of(k):
            rows.append(f'<a class="next" href="/listing.aspx?Page={page + 1}">'
                        f'trang sau</a>')
        total = cfg.docs_per_host(k)
        return (f'<div class="message"><strong>{total}</strong></div>\n'
                + "\n".join(rows)).encode()

    def flavor_of_host(self, k: int) -> str:
        """Document flavor per host, cycling cfg.flavors — the reference's
        portals: 'phapquy' (vbpl.vn shape), 'anle' (anle.toaan.gov.vn
        shape), 'hopnhat' (consolidated docs: attrs in a vbInfo list, full
        text behind a PDF <object>, vbpl.py:514-573)."""
        return self.cfg.flavors[k % len(self.cfg.flavors)]

    def hopnhat_pdf_on_main(self, doc_id: int) -> bool:
        """~2/3 of hopnhat docs expose the PDF object on the main tab; the
        rest only on the second tab URL (the reference's two tab-URL
        variants, vbpl.py:474-512)."""
        return hash64_one(f"tab{doc_id}") % 3 != 0

    def _fulltext_block(self, doc_id: int) -> str:
        """Deterministic 'toanvancontent' full-text with hierarchy +
        sections derived from the caption (exercises M5-M7 in the crawl)."""
        words = self._caption(doc_id).split(" ")
        half = max(1, len(words) // 2)
        lines = [f"Chương {'I' * (1 + doc_id % 3)}",
                 f"TÊN CHƯƠNG {doc_id}",
                 f"Điều 1. Phạm vi {doc_id}",
                 " ".join(words[:half]) or "trống",
                 f"Điều 2. Thi hành {doc_id}",
                 " ".join(words[half:]) or "trống"]
        if doc_id % 7 == 0:
            lines += ["PHỤ LỤC", f"DANH MỤC {doc_id}",
                      f"Phụ lục I BIỂU MẪU {doc_id}"]
        else:
            lines.append("hết")
        return "\n".join(lines)

    def _anle_text_block(self, doc_id: int, part: int | None = None) -> str:
        words = self._caption(doc_id).split(" ")
        tail = "" if part is None else f" bản đính kèm {part}"
        return (f"Tình huống án lệ:\n{' '.join(words[:8]) or 'tình huống'}\n"
                f"Giải pháp pháp lý:\n{' '.join(words[8:16]) or 'giải pháp'}\n"
                f"Ghi chú: hết phần này\n"
                f"NỘI DUNG ÁN LỆ\n[1] {' '.join(words[16:]) or 'nội dung'}"
                f"{tail}\n")

    def n_anle_files(self, doc_id: int) -> int:
        """Attachment count for one anle case: 2..(1+anle_files_per_doc),
        deterministic (the multi-file shape needs >=2 per case)."""
        f = self.cfg.anle_files_per_doc
        return 0 if f <= 0 else 2 + int(hash64_one(f"anlef{doc_id}") % f)

    def _anle_file_body(self, doc_id: int, part: int) -> bytes:
        """One attachment: even parts are SIMPDF, odd parts SIMDOC (the
        reference's is_pdf/else-transcode split, anle.py:205-210). Content
        varies per part so last-file-wins upsert order is observable."""
        text = self._anle_text_block(doc_id, part=part).encode()
        return ((b"%SIMDOC%" + text) if part % 2 else (b"%SIMPDF%" + text))

    def luocdo_of(self, doc_id: int) -> list[tuple[int, str, bool]]:
        """Doc-map ('lược đồ') edges — the reference's SECOND link phase
        (vbpl.py:706-804). Returns (target_id, map_label, direct): direct
        targets link by ItemID; indirect ones expose only a title-search
        href the crawler must resolve via the search host."""
        cfg = self.cfg
        k = cfg.host_of_doc(doc_id)
        base = k * cfg.doc_base
        local = doc_id - base
        n = cfg.docs_per_host(k)
        if n < 3 or local % 3 != 1:
            return []
        tgt = base + (local + 2) % n
        label = "thay thế" if tgt % 2 == 0 else "sửa đổi bổ sung"
        return [(tgt, label, doc_id % 2 == 0)]

    def extra_attachments(self, doc_id: int) -> list[str]:
        """Every 5th doc carries extra non-image attachments — exercises
        the reference's space-joined multi-attachment file_link (A5,
        vbpl.py:1043-1045)."""
        if doc_id % 5 != 0:
            return []
        return [f"/att/{doc_id}_{j}.pdf" for j in range(1, 2 + doc_id % 2)]

    def _doc_body(self, doc_id: int) -> bytes:
        k = self.cfg.host_of_doc(doc_id)
        cap = self._caption(doc_id)
        fmt = self._fmt(doc_id)
        h = hash64_one(f"date{doc_id}")
        day, month, year = 1 + h % 28, 1 + (h >> 8) % 12, 2000 + (h >> 16) % 24
        rels = "\n".join(
            f'<li class="related"><a href="/doc.aspx?ItemID={rid}">liên quan</a>'
            f'<span class="doc-type">{label}</span></li>'
            for rid, label in self.related_ids(doc_id))
        atts = "\n".join(f'<a class="attachment" href="{a}">đính kèm</a>'
                         for a in self.extra_attachments(doc_id))
        rels = f"{atts}\n{rels}" if atts else rels
        from urllib.parse import quote
        luocdo = "\n".join(
            (f'<li class="luocdo"><a href="/doc.aspx?ItemID={tgt}">'
             f'{self._caption(tgt)}</a>'
             f'<span class="map-type">{label}</span></li>') if direct else
            (f'<li class="luocdo"><a href="http://search.test/search.aspx'
             f'?q={quote(self._caption(tgt))}">{self._caption(tgt)}</a>'
             f'<span class="map-type">{label}</span></li>')
            for tgt, label, direct in self.luocdo_of(doc_id))
        rels = f"{rels}\n{luocdo}" if luocdo else rels
        if self.flavor_of_host(k) == "hopnhat":
            obj = ('<div class="vbProperties"><object '
                   f'data="/pdf/{doc_id}.pdf" type="application/pdf">'
                   '</object></div>\n'
                   if self.hopnhat_pdf_on_main(doc_id) else "")
            gaz = self.doc_dates(doc_id)["gazette"]
            gaz_li = (f"\n<li>Ngày đăng công báo: "
                      f"{gaz.day:02d}/{gaz.month:02d}/{gaz.year}</li>"
                      if gaz is not None else "")
            return f"""<ul class="vbInfo hopnhat">
<li>Số hiệu: {doc_id}/VBHN-BCT</li>
<li>Ngày xác thực: {day:02d}/{month:02d}/{year}</li>{gaz_li}
<li>Loại văn bản: Văn bản hợp nhất</li>
<li>Cơ quan ban hành: Bộ {k}</li>
</ul>
<td class="title">{cap}</td>
<img class="payload" src="/img/{doc_id}.{fmt}"/>
{obj}<ul class="relatedDoc">
{rels}
</ul>""".encode()
        if self.flavor_of_host(k) == "anle":
            nf = self.n_anle_files(doc_id)
            if nf:
                # multi-file shape (reference anle.py:107-120): N download
                # divs, filename embeds '(doc_id)-p{part}'; no inline text
                body = "\n".join(
                    f'<div id="filetaive"><a href="/anle-file/({doc_id})-'
                    f'p{i}.{"doc" if i % 2 else "pdf"}">Tải về</a></div>'
                    for i in range(nf))
            else:
                body = (f'<div class="anle-text">\n'
                        f'{self._anle_text_block(doc_id)}</div>')
            # full 8-field attribute table (reference regex dict
            # anle.py:75-84); publication/application dates + state reuse
            # the doc_dates model, decision is a derived serial
            dd = self.doc_dates(doc_id)
            pub = (f"\n<tr><th>Ngày công bố</th><td>{dd['gazette'].day:02d}/"
                   f"{dd['gazette'].month:02d}/{dd['gazette'].year}</td></tr>"
                   if dd["gazette"] is not None else "")
            return f"""<div id="thuoctinh">
<tr><th>Số án lệ</th><td>{doc_id}/AL</td></tr>
<tr><th>Tên án lệ</th><td>Án lệ số {doc_id} về {cap}</td></tr>
<tr><th>Ngày thông qua</th><td>{day:02d}/{month:02d}/{year}</td></tr>{pub}
<tr><th>Quyết định công bố</th><td>{doc_id}/QĐ-CA</td></tr>
<tr><th>Ngày áp dụng</th><td>{dd['effective'].day:02d}/\
{dd['effective'].month:02d}/{dd['effective'].year}</td></tr>
<tr><th>Lĩnh vực</th><td>Dân sự {k}</td></tr>
<tr><th>Trạng thái</th><td>{dd['state']}</td></tr>
</div>
<td class="title">{cap}</td>
<img class="payload" src="/img/{doc_id}.{fmt}"/>
{body}
<ul class="relatedDoc">
{rels}
</ul>""".encode()
        toanvan = ("" if self.missing_fulltext(doc_id) else
                   f'<div class="toanvancontent">\n'
                   f'{self._fulltext_block(doc_id)}</div>\n')
        # full phapquy attribute surface (reference regex dict
        # vbpl.py:610-618 + div.vbInfo state/expiration vbpl.py:640-648 +
        # box-map breadcrumb title vbpl.py:594-601); missing_dates docs
        # omit the date rows and the vbInfo block entirely — the concetti
        # enrichment is their only date source
        dd = self.doc_dates(doc_id)

        def fd(d: _dt.date) -> str:
            return f"{d.day:02d}/{d.month:02d}/{d.year}"

        date_rows = info = ""
        if not self.missing_dates(doc_id):
            date_rows = (f"<tr><td>Ngày có hiệu lực</td>"
                         f"<td>{fd(dd['effective'])}</td></tr>\n")
            if dd["gazette"] is not None:
                date_rows += (f"<tr><td>Ngày đăng công báo</td>"
                              f"<td>{fd(dd['gazette'])}</td></tr>\n")
            exp_li = (f"\n<li>Ngày hết hiệu lực: {fd(dd['expiration'])}</li>"
                      if dd["expiration"] is not None else "")
            info = (f'<div class="vbInfo"><ul>\n'
                    f'<li>Hiệu lực: {dd["state"]}</li>{exp_li}\n'
                    f'</ul></div>\n')
        return f"""<div class="box-map"><a href="">{cap}</a></div>
<div class="vbProperties">
<tr><td>Số ký hiệu</td><td>{doc_id}/QĐ-TTg</td></tr>
<tr><td>Ngày ban hành</td><td>{day:02d}/{month:02d}/{year}</td></tr>
{date_rows}<tr><td>Thông tin áp dụng</td><td>{dd['applicable_information']}</td></tr>
<tr><td>Loại văn bản</td><td>Quyết định</td></tr>
<tr><td>Cơ quan ban hành</td><td>Bộ {k}</td></tr>
</div>
{info}<td class="title">{cap}</td>
<img class="payload" src="/img/{doc_id}.{fmt}"/>
{toanvan}<ul class="relatedDoc">
{rels}
</ul>""".encode()

    def _img_body(self, doc_id: int, fmt: str) -> bytes:
        w, h = self._dims(doc_id)
        return encode_image(gen_pixels(f"img{doc_id:08d}", w, h, self.cfg.seed), fmt)

    def _doc2_body(self, doc_id: int) -> bytes:
        """Second tab page: attachments-only view carrying the PDF object
        (the alternate tab-URL variant, reference vbpl.py:474-512)."""
        return (f'<div class="vbProperties"><object '
                f'data="/pdf/{doc_id}.pdf" type="application/pdf">'
                f'</object></div>').encode()

    def _pdf_body(self, doc_id: int) -> bytes:
        """Deterministic 'PDF': SIMPDF container holding the doc's full
        text behind the Aspose evaluation watermark (the strip-then-parse
        chain, reference anle.py:221-223)."""
        from ..stages.fulltext import ASPOSE_WATERMARK
        return (b"%SIMPDF%" + ASPOSE_WATERMARK.encode() + b"\n"
                + self._fulltext_block(doc_id).encode())

    # ---- the fetch entry point ----

    def _docs_with_caption(self, cap: str) -> list[int]:
        """Invert caption -> doc ids (caption index is doc_id mod the
        caption-table length, so matches enumerate by stride — no corpus
        scan)."""
        cfg = self.cfg
        caps = cfg.captions
        out = []
        if caps:
            if cap not in caps:
                return []
            idx, L = caps.index(cap), len(caps)
            for k in range(cfg.n_hosts):
                base = k * cfg.doc_base
                j0 = (idx - base) % L
                out.extend(base + j for j in range(j0, cfg.docs_per_host(k), L))
        else:
            m = re.search(r"Văn bản số (\d+) ", cap)
            if m:
                out = [int(m.group(1))]
        return sorted(out)

    def _search_body(self, query: str) -> bytes:
        """Secondary-source search results (the TVPL/luatvietnam analogue,
        reference vbpl.py:922-988): a low-similarity decoy first (the
        fuzzy matcher must skip it), then up to 3 archive hits whose
        titles are near — not equal to — the true title, each carrying
        that doc's full text."""
        from urllib.parse import unquote
        cap = unquote(query)
        items = ['<div class="result"><h3>Thông báo phát hành công báo'
                 '</h3><pre class="fulltext">không áp dụng</pre></div>']
        for did in self._docs_with_caption(cap)[:3]:
            k = self.cfg.host_of_doc(did)
            items.append(
                f'<div class="result"><h3>{self._caption(did)} +</h3>'
                f'<a class="target" href="http://host{k}.test/doc.aspx'
                f'?ItemID={did}">xem văn bản</a>'
                f'<pre class="fulltext">\n{self._fulltext_block(did)}'
                f'</pre></div>')
        return "\n".join(items).encode()

    def _concetti_body(self, query: str) -> bytes:
        """Concetti-style JSON search API (reference search_concetti,
        vbpl.py:806-920): camelCase-marshalled query params, paged items
        with name/number/key identity fields and ISO effective/expiry
        dates. Item 1 is a low-similarity decoy the client's 3-key fuzzy
        acceptance must reject; real hits follow, resolved by serial
        number or by caption. Date-range params are accepted (and, like
        most real search APIs, treated as advisory)."""
        import json
        from urllib.parse import parse_qs, unquote

        q = parse_qs(query)
        key = unquote(q.get("key", [""])[0])
        page = int(q.get("page", ["1"])[0])
        limit = int(q.get("limit", ["5"])[0])
        sm = _SERIAL_RE.match(key)
        ids = ([int(sm.group(1))] if sm else self._docs_with_caption(key))
        items = [{"active": False, "slug": "cb-0", "key": "cb-0",
                  "name": "Thông báo phát hành công báo", "number": "0/CB",
                  "issueDate": None, "effectiveDate": None,
                  "expiryDate": None, "gazetteDate": None}]
        for did in ids[:8]:
            dd = self.doc_dates(did)
            items.append({
                "active": dd["state"] == "Có hiệu lực",
                "slug": f"vb-{did}", "key": f"vb-{did}",
                "name": self._caption(did), "number": f"{did}/QĐ-TTg",
                "issueDate": dd["issuance"].isoformat(),
                "effectiveDate": dd["effective"].isoformat(),
                "expiryDate": (dd["expiration"].isoformat()
                               if dd["expiration"] is not None else None),
                "gazetteDate": (dd["gazette"].isoformat()
                                if dd["gazette"] is not None else None)})
        lo = (page - 1) * limit
        return json.dumps({"items": items[lo:lo + limit]}).encode()

    def get(self, url: str, attempt: int = 0) -> tuple[int, str, bytes]:
        """(status, content_type, body). Deterministic; ``attempt`` models
        the transient-500 retry path."""
        cm = _CONCETTI_RE.match(url)
        if cm:
            if self.is_flaky(url, attempt):
                return 500, "text/plain", b"transient"
            return 200, "application/json", self._concetti_body(cm.group("q"))
        sm = _SEARCH_RE.match(url)
        if sm:
            if self.is_flaky(url, attempt):
                return 500, "text/plain", b"transient"
            return 200, "text/html", self._search_body(sm.group("q"))
        m = _URL_RE.match(url)
        if not m:
            return 404, "text/plain", b""
        k = int(m.group("host"))
        path, query = m.group("path"), m.group("query") or ""
        if k >= self.cfg.n_hosts:
            return 404, "text/plain", b""
        if path == "/robots.txt":
            return 200, "text/plain", self._robots_body(k)
        if self.is_flaky(url, attempt):
            return 500, "text/plain", b"transient"
        if path == "/listing.aspx":
            page = int(re.search(r"Page=(\d+)", query).group(1))
            if not (1 <= page <= self.cfg.pages_per_host_of(k)):
                return 404, "text/plain", b""
            return 200, "text/html", self._listing_body(k, page)
        if path == "/d.aspx":
            # legacy short URL: permanent redirect to the canonical form
            # (Location carried in the body; content_type marks it)
            doc_id = int(re.search(r"ItemID=(\d+)", query).group(1))
            return 301, "location", f"/doc.aspx?ItemID={doc_id}".encode()
        if path in ("/doc.aspx", "/doc2.aspx"):
            doc_id = int(re.search(r"ItemID=(\d+)", query).group(1))
            if (self.cfg.host_of_doc(doc_id) != k
                    or doc_id - k * self.cfg.doc_base >= self.cfg.docs_per_host(k)
                    or self._is_missing_doc(doc_id)):
                return 404, "text/plain", b""
            if path == "/doc2.aspx":
                if self.flavor_of_host(k) != "hopnhat" \
                        or self.hopnhat_pdf_on_main(doc_id):
                    return 404, "text/plain", b""
                return 200, "text/html", self._doc2_body(doc_id)
            return 200, "text/html", self._doc_body(doc_id)
        af = re.match(r"^/anle-file/\((\d+)\)-p(\d+)\.(pdf|doc)$", path)
        if af:
            doc_id, part = int(af.group(1)), int(af.group(2))
            if (self.cfg.host_of_doc(doc_id) != k
                    or self.flavor_of_host(k) != "anle"
                    or part >= self.n_anle_files(doc_id)
                    or (af.group(3) == "doc") != bool(part % 2)):
                return 404, "text/plain", b""
            return (200, "application/octet-stream",
                    self._anle_file_body(doc_id, part))
        pdf = re.match(r"^/pdf/(\d+)\.pdf$", path)
        if pdf:
            doc_id = int(pdf.group(1))
            if (self.cfg.host_of_doc(doc_id) != k
                    or self.flavor_of_host(k) != "hopnhat"):
                return 404, "text/plain", b""
            return 200, "application/pdf", self._pdf_body(doc_id)
        img = re.match(r"^/(img|img-alt)/(\d+)\.(png|jpeg)$", path)
        if img:
            doc_id = int(img.group(2))
            if self.cfg.host_of_doc(doc_id) != k:
                return 404, "text/plain", b""
            # moved images: primary path 404s, fallback path serves
            at_alt = img.group(1) == "img-alt"
            if self.img_moved(doc_id) != at_alt:
                return 404, "text/plain", b""
            return (200, f"image/{img.group(3)}",
                    self._img_body(doc_id, img.group(3)))
        if path.startswith("/private/"):
            return 200, "text/html", b"should never be fetched (robots)"
        return 404, "text/plain", b""

    def seed_urls(self) -> list[str]:
        """Depth-0 seeds, pages ascending (matching the reference's
        ascending page loop, app/service/vbpl.py:102-103). In
        paginate_via_links mode only page 1 per host is seeded; the rest is
        discovered through 'next' links (the anle while-loop analogue,
        app/service/anle.py:158-191)."""
        if self.cfg.paginate_via_links:
            return [f"http://host{k}.test/listing.aspx?Page=1"
                    for k in range(self.cfg.n_hosts)]
        return [f"http://host{k}.test/listing.aspx?Page={n}"
                for k in range(self.cfg.n_hosts)
                for n in range(1, self.cfg.pages_per_host_of(k) + 1)]

    def get_total_docs(self, host: int) -> int:
        """S3 analogue (reference get_total_doc, vbpl.py:75-92): fetch a
        listing page and parse the '<strong>' corpus count."""
        url = f"http://host{host}.test/listing.aspx?Page=1"
        status, _, body = self.get(url)
        attempt = 0
        while status >= 500 and attempt < 3:
            attempt += 1
            status, _, body = self.get(url, attempt=attempt)
        m = re.search(rb"<strong>(\d+)</strong>", body)
        return int(m.group(1)) if status == 200 and m else 0


def config_from_documents(sf_dir: str, n_hosts: int = 4, pages_per_host: int = 3,
                          docs_per_page: int = 5, max_captions: int | None = None,
                          **kw) -> SimWebConfig:
    """Build a SimWebConfig whose captions come from the driver's documents
    table — entry()'s hermetic input (TESTDATA.md).

    ``max_captions`` bounds the caption table: the config is pickled into
    every actor/task constructor, so an unbounded caption tuple (5k long
    texts at sf0.1) ships megabytes per stage per round. Caption choice
    stays deterministic (doc_id mod the table length)."""
    import pyarrow.parquet as pq
    caps = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["text"])["text"].to_pylist()
    if max_captions is not None:
        caps = caps[:max_captions]
    return SimWebConfig(n_hosts=n_hosts, pages_per_host=pages_per_host,
                        docs_per_page=docs_per_page,
                        captions=tuple(caps), **kw)
