package server

// dashboardHTML is the embedded single-page dashboard. It mirrors the
// paper's Figure 2 layout: (1) query input form, (2) scatterplot with
// drag-to-select suspect results and zoom into raw tuples, (3) error
// metric form, (4) ranked predicate list with click-to-clean.
const dashboardHTML = `<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>DBWipes — Clean as You Query</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 0; background: #f5f6f8; color: #1c2330; }
  header { background: #25344d; color: #fff; padding: 10px 18px; font-size: 18px; }
  header span { color: #9fb3d1; font-size: 13px; margin-left: 12px; }
  .wrap { display: flex; gap: 14px; padding: 14px; align-items: flex-start; }
  .left { flex: 2; min-width: 0; }
  .right { flex: 1; max-width: 460px; }
  .card { background: #fff; border: 1px solid #dde3ec; border-radius: 8px; padding: 12px; margin-bottom: 14px; }
  .card h3 { margin: 0 0 8px; font-size: 13px; text-transform: uppercase; letter-spacing: .04em; color: #5a6b85; }
  textarea { width: 100%; box-sizing: border-box; height: 64px; font-family: ui-monospace, monospace; font-size: 13px; border: 1px solid #c8d1de; border-radius: 6px; padding: 8px; }
  button { background: #2e5db3; color: #fff; border: 0; border-radius: 6px; padding: 7px 14px; font-size: 13px; cursor: pointer; margin-right: 6px; margin-top: 6px; }
  button.secondary { background: #68778f; }
  button:disabled { background: #b8c2d2; cursor: default; }
  svg { width: 100%; height: 360px; background: #fff; }
  .pred { border: 1px solid #dde3ec; border-radius: 6px; padding: 8px 10px; margin-bottom: 8px; cursor: pointer; }
  .pred:hover { border-color: #2e5db3; background: #f4f8ff; }
  .pred code { font-size: 12.5px; color: #14315e; }
  .pred .meta { font-size: 11.5px; color: #5a6b85; margin-top: 4px; }
  .bar { height: 5px; background: #e6ebf3; border-radius: 3px; margin-top: 5px; }
  .bar i { display: block; height: 100%; background: #48a463; border-radius: 3px; }
  select, input[type=number] { border: 1px solid #c8d1de; border-radius: 6px; padding: 5px 7px; font-size: 13px; }
  .muted { color: #5a6b85; font-size: 12.5px; }
  .chip { display: inline-block; background: #eef2f8; border: 1px solid #d4dce8; border-radius: 12px; padding: 2px 10px; font-size: 12px; margin: 2px 4px 2px 0; }
  table.zoom { border-collapse: collapse; font-size: 12px; width: 100%; }
  table.zoom th, table.zoom td { border-bottom: 1px solid #e7ebf2; padding: 3px 6px; text-align: left; white-space: nowrap; }
  #status { color: #9a3131; font-size: 13px; min-height: 17px; }
</style>
</head>
<body>
<header>DBWipes <span>Clean as You Query — ranked provenance demo</span></header>
<div class="wrap">
  <div class="left">
    <div class="card">
      <h3>1 · Query</h3>
      <textarea id="sql"></textarea>
      <div>
        <button onclick="runQuery()">Run</button>
        <button class="secondary" onclick="resetClean()">Reset cleaning</button>
        <span id="applied"></span>
      </div>
      <div id="status"></div>
    </div>
    <div class="card">
      <h3>2 · Results — drag to select suspicious groups (S)</h3>
      <div class="muted">y-axis: <select id="ycol"></select>
        <label id="pcaLbl" style="display:none"><input type="checkbox" id="pcaToggle" onchange="drawPlot()"> PCA view</label>
        &nbsp; selected groups: <b id="nsel">0</b>
        <button class="secondary" onclick="zoom()">Zoom into tuples</button></div>
      <svg id="plot"></svg>
    </div>
    <div class="card" id="zoomCard" style="display:none">
      <h3>Zoomed tuples of selected groups — first 200</h3>
      <div class="muted">Suspicious-input condition (D′): <input id="dcond" size="28" placeholder="e.g. temperature > 100"></div>
      <div style="max-height: 260px; overflow:auto"><table class="zoom" id="zoomTable"></table></div>
    </div>
  </div>
  <div class="right">
    <div class="card">
      <h3>3 · Error metric (ε)</h3>
      <div>
        <select id="metric"></select>
        expected value c: <input type="number" id="mc" value="0" step="any" style="width:90px">
      </div>
      <button onclick="debug()">Debug!</button>
      <div class="muted" id="dbginfo"></div>
    </div>
    <div class="card">
      <h3>4 · Ranked predicates — click to clean</h3>
      <div id="preds" class="muted">Run a query, select suspicious results, then Debug.</div>
    </div>
  </div>
</div>
<script>
const S = { data: null, sel: new Set(), metricSpecs: [] };
const $ = id => document.getElementById(id);

async function api(path, body) {
  const r = await fetch(path, { method: 'POST', headers: {'Content-Type':'application/json'}, body: JSON.stringify(body || {}) });
  const j = await r.json();
  if (!r.ok) throw new Error(j.error || r.statusText);
  return j;
}

function setStatus(msg) { $('status').textContent = msg || ''; }

async function init() {
  S.metricSpecs = await (await fetch('/api/metrics')).json();
  const sel = $('metric');
  for (const m of S.metricSpecs) {
    const o = document.createElement('option');
    o.value = m.Name; o.textContent = m.Label + ' (' + m.Name + ')';
    sel.appendChild(o);
  }
  const tables = await (await fetch('/api/tables')).json();
  const names = Object.keys(tables);
  if (names.includes('readings')) {
    $('sql').value = "SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30";
  } else if (names.includes('donations')) {
    $('sql').value = "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day";
  } else if (names.length) {
    $('sql').value = 'SELECT count(*) FROM ' + names[0];
  }
}

async function runQuery() {
  setStatus('');
  try {
    S.data = await api('/api/query', { sql: $('sql').value });
    S.sel.clear();
    fillYCol();
    drawPlot();
    showApplied();
    $('zoomCard').style.display = 'none';
  } catch (e) { setStatus(e.message); }
}

function showApplied() {
  $('applied').innerHTML = (S.data.applied || []).map(p => '<span class="chip">NOT (' + p + ')</span>').join('');
}

function fillYCol() {
  const sel = $('ycol'); sel.innerHTML = '';
  (S.data.aggCols.length ? S.data.aggCols.map(i => S.data.columns[ S.aggItemIndex(i) ]) : []).length;
  // y choices: every numeric column except the first (x)
  S.data.columns.forEach((c, i) => {
    if (i === 0) return;
    const o = document.createElement('option');
    o.value = i; o.textContent = c;
    sel.appendChild(o);
  });
  sel.onchange = drawPlot;
}
S.aggItemIndex = i => i;

function xyOf(row, yi) {
  let x = row[0];
  if (typeof x === 'string') x = Date.parse(x) / 1000 || 0;
  let y = row[yi];
  if (y == null) y = 0;
  return [x, y];
}

function drawPlot() {
  const svg = $('plot');
  svg.innerHTML = '';
  if (!S.data || !S.data.rows.length) return;
  const yi = +$('ycol').value || 1;
  const W = svg.clientWidth || 600, H = svg.clientHeight || 360, mL=55, mB=28, mT=10, mR=10;
  svg.setAttribute('viewBox', '0 0 ' + W + ' ' + H);
  // PCA view (paper §2.2.1: plot the two largest principal components)
  // when the backend shipped a projection.
  $('pcaLbl').style.display = S.data.pca ? '' : 'none';
  const usePCA = S.data.pca && $('pcaToggle').checked;
  const pts = usePCA
    ? S.data.pca.map((p, i) => ({x: p[0], y: p[1], i}))
    : S.data.rows.map((r, i) => { const [x, y] = xyOf(r, yi); return {x, y, i}; });
  let xmin=Math.min(...pts.map(p=>p.x)), xmax=Math.max(...pts.map(p=>p.x));
  let ymin=Math.min(...pts.map(p=>p.y)), ymax=Math.max(...pts.map(p=>p.y));
  if (xmax===xmin) xmax=xmin+1; if (ymax===ymin) ymax=ymin+1;
  const sx = x => mL + (x-xmin)/(xmax-xmin)*(W-mL-mR);
  const sy = y => mT + (1-(y-ymin)/(ymax-ymin))*(H-mT-mB);
  const ns = 'http://www.w3.org/2000/svg';
  const mk = (tag, attrs) => { const el = document.createElementNS(ns, tag); for (const k in attrs) el.setAttribute(k, attrs[k]); svg.appendChild(el); return el; };
  mk('line', {x1:mL, y1:H-mB, x2:W-mR, y2:H-mB, stroke:'#333'});
  mk('line', {x1:mL, y1:mT, x2:mL, y2:H-mB, stroke:'#333'});
  for (let i=0;i<=4;i++){
    const yv = ymin + (ymax-ymin)*i/4;
    const t = mk('text', {x:mL-6, y:sy(yv)+4, 'font-size':10, 'text-anchor':'end', fill:'#667'});
    t.textContent = (+yv.toFixed(2));
    const xv = xmin + (xmax-xmin)*i/4;
    const tx = mk('text', {x:sx(xv), y:H-mB+14, 'font-size':10, 'text-anchor':'middle', fill:'#667'});
    tx.textContent = (+xv.toFixed(1));
  }
  for (const p of pts) {
    mk('circle', {cx:sx(p.x), cy:sy(p.y), r: S.sel.has(p.i)?4:2.5,
      fill: S.sel.has(p.i) ? '#ee6677' : '#4477aa', 'fill-opacity': .8, 'data-i': p.i});
  }
  // drag-select
  let drag = null, rect = null;
  svg.onmousedown = e => {
    const bb = svg.getBoundingClientRect();
    drag = {x0: (e.clientX-bb.left)*W/bb.width, y0: (e.clientY-bb.top)*H/bb.height};
    rect = mk('rect', {fill:'#ee6677', 'fill-opacity':.15, stroke:'#ee6677'});
  };
  svg.onmousemove = e => {
    if (!drag) return;
    const bb = svg.getBoundingClientRect();
    const x1 = (e.clientX-bb.left)*W/bb.width, y1 = (e.clientY-bb.top)*H/bb.height;
    rect.setAttribute('x', Math.min(drag.x0,x1)); rect.setAttribute('y', Math.min(drag.y0,y1));
    rect.setAttribute('width', Math.abs(x1-drag.x0)); rect.setAttribute('height', Math.abs(y1-drag.y0));
  };
  svg.onmouseup = e => {
    if (!drag) return;
    const bb = svg.getBoundingClientRect();
    const x1 = (e.clientX-bb.left)*W/bb.width, y1 = (e.clientY-bb.top)*H/bb.height;
    const [xa,xb] = [Math.min(drag.x0,x1), Math.max(drag.x0,x1)];
    const [ya,yb] = [Math.min(drag.y0,y1), Math.max(drag.y0,y1)];
    if (xb-xa < 4 && yb-ya < 4) { S.sel.clear(); }
    else {
      for (const p of pts) {
        const px = sx(p.x), py = sy(p.y);
        if (px>=xa && px<=xb && py>=ya && py<=yb) S.sel.add(p.i);
      }
    }
    drag = null; rect.remove();
    $('nsel').textContent = S.sel.size;
    drawPlot();
    suggestMetric();
  };
}

// The paper's dynamic error-metric form: prefill the expected value and
// pick the directional metric matching how the selection deviates.
async function suggestMetric() {
  if (!S.sel.size) return;
  try {
    const j = await api('/api/suggest', { suspect: [...S.sel], aggItem: -1 });
    if (j.suggestedC !== null) $('mc').value = +j.suggestedC.toFixed(3);
    if (j.recommended) $('metric').value = j.recommended;
  } catch (e) { /* suggestion is best-effort */ }
}

async function zoom() {
  if (!S.sel.size) { setStatus('select suspicious groups first'); return; }
  try {
    const j = await api('/api/zoom', { suspect: [...S.sel], limit: 200 });
    const tbl = $('zoomTable');
    tbl.innerHTML = '<tr>' + j.columns.map(c => '<th>'+c+'</th>').join('') + '</tr>' +
      j.rows.map(r => '<tr>' + r.map(v => '<td>'+(v==null?'':v)+'</td>').join('') + '</tr>').join('');
    $('zoomCard').style.display = '';
  } catch (e) { setStatus(e.message); }
}

async function debug() {
  if (!S.sel.size) { setStatus('select suspicious groups first'); return; }
  setStatus('');
  $('preds').textContent = 'computing…';
  try {
    const j = await api('/api/debug', {
      suspect: [...S.sel],
      aggItem: -1,
      metric: $('metric').value,
      metricParams: { c: +$('mc').value },
      examplesCond: $('dcond') ? $('dcond').value : ''
    });
    $('dbginfo').textContent = 'ε = ' + j.eps.toFixed(2) + ' over ' + j.lineageSize + ' lineage tuples';
    const div = $('preds');
    div.innerHTML = '';
    if (!j.explanations || !j.explanations.length) { div.textContent = 'no predicates found'; return; }
    j.explanations.forEach((e, i) => {
      const d = document.createElement('div');
      d.className = 'pred';
      d.innerHTML = '<code>' + e.predicate + '</code>' +
        '<div class="meta">score ' + e.score.toFixed(3) + ' · removes ' + Math.round(e.errImprovement*100) +
        '% of ε · ' + e.numTuples + ' tuples · ' + e.origin + '</div>' +
        '<div class="bar"><i style="width:' + Math.round(e.errImprovement*100) + '%"></i></div>';
      d.onclick = () => clean(i);
      div.appendChild(d);
    });
  } catch (e) { $('preds').textContent = ''; setStatus(e.message); }
}

async function clean(i) {
  try {
    S.data = await api('/api/clean', { explanation: i });
    S.sel.clear(); $('nsel').textContent = 0;
    drawPlot(); showApplied();
    setStatus('');
  } catch (e) { setStatus(e.message); }
}

async function resetClean() {
  try {
    const j = await api('/api/reset', {});
    if (j.rows) { S.data = j; S.sel.clear(); drawPlot(); showApplied(); }
  } catch (e) { setStatus(e.message); }
}

init();
</script>
</body>
</html>`
