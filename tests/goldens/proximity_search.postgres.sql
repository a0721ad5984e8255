select id, regiondesc_id, chromosome, start_pos, end_pos
from regions
where chromosome = 'chr8'
  and start_pos >= 0
  and end_pos >= start_pos
  and least(end_pos, 128848314) - greatest(start_pos, 128648314) >= 1
order by id;
